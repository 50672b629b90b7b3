package memcache

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"rnb/internal/obs"
)

// Distributed-tracing support, both wire formats.
//
// A traced command is prefixed with a compact trace context — trace id
// plus parent (client) span id — and followed by the server's phase
// attribution for the transaction it caused:
//
//	text:    trace <id> <span>\r\n
//	         get k1 k2\r\n
//	         ... normal VALUE/END response ...
//	         TRACE <id> <srvspan> <queue> <parse> <wait> <exec> <flush>\r\n
//
//	binary:  [binOpTrace request, 16-byte extras][GetKQ×N][Noop]
//	         ... quiet hits ... [Noop response]
//	         [binOpTrace response, 56-byte body: id srvspan q p w x f]
//
// Propagation is negotiated, never assumed: a transport only emits the
// prefix after a version handshake whose banner names this server
// ("rnb-memcache/..."), so plain memcached servers are untouched, and
// with tracing disabled the wire is byte-identical to the untraced
// protocol. The server side needs no negotiation — it always
// understands the prefix, and answers a trailing timing record for
// every traced command, so client framing is deterministic.

// VersionBanner is the version string both protocol handlers answer;
// the trace handshake keys on the "rnb-memcache" prefix.
const VersionBanner = "rnb-memcache/1.0"

// bannerSupportsTracing is the client side of the handshake.
func bannerSupportsTracing(banner string) bool {
	return strings.HasPrefix(banner, "rnb-memcache")
}

// binOpTrace is this repository's trace-context extension opcode,
// chosen from the unused range next to binOpSetP.
const binOpTrace = 0xf1

// binTraceBodyLen is the trace response body: the timing record's 7
// words, big-endian.
const binTraceBodyLen = 56

// timingWords is the timing record in wire order — trace id, server
// span id, queue, parse, wait, exec, flush — which both wire formats
// carry as 7 unsigned words (decimal on the text wire). The phase
// durations are clamped at zero before they get here.
func timingWords(st *obs.ServerTimings) [7]uint64 {
	return [7]uint64{
		st.TraceID,
		st.SpanID,
		uint64(st.QueueNS),
		uint64(st.ParseNS),
		uint64(st.WaitNS),
		uint64(st.ExecNS),
		uint64(st.FlushNS),
	}
}

func setTimingWords(st *obs.ServerTimings, v [7]uint64) {
	st.TraceID = v[0]
	st.SpanID = v[1]
	st.QueueNS = int64(v[2])
	st.ParseNS = int64(v[3])
	st.WaitNS = int64(v[4])
	st.ExecNS = int64(v[5])
	st.FlushNS = int64(v[6])
}

// --- client write/read halves (text) ---------------------------------

// writeTraceCmd emits the text trace prefix line.
func writeTraceCmd(w *bufio.Writer, tc obs.TraceContext) error {
	scratch := lineScratch.Get().(*[320]byte)
	b := scratch[:0]
	b = append(b, "trace"...)
	b = appendUintField(b, tc.TraceID)
	b = appendUintField(b, tc.Parent)
	b = append(b, '\r', '\n')
	_, err := w.Write(b)
	lineScratch.Put(scratch)
	return err
}

// readTraceReply consumes the trailing TRACE line of a traced command.
// Any other line here means the client lost track of the response
// framing, so every violation is conn-fatal.
func readTraceReply(r *bufio.Reader, st *obs.ServerTimings) error {
	line, err := readClientLine(r)
	if err != nil {
		return err
	}
	verb, rest := nextField(line)
	if !bytes.Equal(verb, []byte("TRACE")) {
		return fmt.Errorf("memcache: expected TRACE reply, got %q", line)
	}
	var vals [7]uint64
	for i := range vals {
		var tok []byte
		tok, rest = nextField(rest)
		v, perr := parseUint(tok, 64)
		if perr != nil {
			return fmt.Errorf("memcache: corrupt TRACE reply %q", line)
		}
		vals[i] = v
	}
	if tail, _ := nextField(rest); len(tail) != 0 {
		return fmt.Errorf("memcache: corrupt TRACE reply %q", line)
	}
	setTimingWords(st, vals)
	return nil
}

// --- client write/read halves (binary) -------------------------------

// writeBinTraceCmd emits the binary trace-context frame: binOpTrace
// with the two ids in 16-byte extras. The server sends no immediate
// response (quiet-like) — the timing record follows the traced
// command's own response.
func writeBinTraceCmd(w *bufio.Writer, tc obs.TraceContext) error {
	var extras [16]byte
	binary.BigEndian.PutUint64(extras[0:8], tc.TraceID)
	binary.BigEndian.PutUint64(extras[8:16], tc.Parent)
	return writeBinFrame(w, binOpTrace, 0, 0, extras[:], "", nil)
}

// readBinTraceReply consumes the trailing binOpTrace response frame.
func readBinTraceReply(r *bufio.Reader, st *obs.ServerTimings) error {
	var h binHeader
	if err := readBinReply(r, binOpTrace, &h); err != nil {
		return err
	}
	if h.bodyLen != binTraceBodyLen {
		return errBinDesync("trace reply body %d bytes, want %d", h.bodyLen, binTraceBodyLen)
	}
	body, err := r.Peek(binTraceBodyLen)
	if err != nil {
		return err
	}
	var vals [7]uint64
	for i := range vals {
		vals[i] = binary.BigEndian.Uint64(body[8*i:])
	}
	setTimingWords(st, vals)
	_, err = r.Discard(binTraceBodyLen)
	return err
}

// --- server-side measurement -----------------------------------------

// fillReader wraps the server side of a connection, stamping the wall
// time of every raw read. The gap between a command's processing start
// and the last fill is how long its bytes sat in the user-space read
// buffer — an honest lower bound on same-connection queueing (an idle
// blocking read measures ~0 because the read that delivers the command
// is itself the fill). The stamp costs one time.Now per buffer fill,
// not per command.
type fillReader struct {
	c        io.Reader
	lastFill atomic.Int64 // unixnano of the most recent Read return
}

func (f *fillReader) Read(p []byte) (int, error) {
	n, err := f.c.Read(p)
	f.lastFill.Store(time.Now().UnixNano())
	return n, err
}

// sinceLastFill returns now minus the last fill stamp, clamped at 0.
func (f *fillReader) sinceLastFill(now time.Time) int64 {
	lf := f.lastFill.Load()
	if lf == 0 {
		return 0
	}
	d := now.UnixNano() - lf
	if d < 0 {
		d = 0
	}
	return d
}

// connTrace is the per-command trace state: armed by the connection loop
// once the command the wire prefix announced is read, filled by the
// executor's exec brackets, finalized into an obs.ServerTimings after
// the response flush.
type connTrace struct {
	tc     obs.TraceContext
	spanID uint64 // minted at arm time so downstream calls can parent on it
	op     string
	start  time.Time // the command's first byte in hand

	queueNS   int64
	keys      int
	waitNS    int64
	execNS    int64
	execStart time.Time
	execEnd   time.Time
}

// finishTrace closes the books on a traced command: derives the parse
// and flush phases from the dispatch/flush stamps, records the span in
// the server flight recorder, and returns the timings to put on the
// wire. dispatchEnd is when command processing finished (response
// serialized into the buffer), flushEnd when the flush syscall
// returned.
func (s *Server) finishTrace(ct *connTrace, dispatchEnd, flushEnd time.Time) obs.ServerTimings {
	st := obs.ServerTimings{
		TraceID: ct.tc.TraceID,
		SpanID:  ct.spanID,
		QueueNS: ct.queueNS,
		WaitNS:  ct.waitNS,
		ExecNS:  ct.execNS,
	}
	if ct.execStart.IsZero() {
		// No backend call (protocol error, empty get): everything before
		// the flush is parse.
		st.ParseNS = dispatchEnd.Sub(ct.start).Nanoseconds()
		st.FlushNS = flushEnd.Sub(dispatchEnd).Nanoseconds()
	} else {
		st.ParseNS = ct.execStart.Sub(ct.start).Nanoseconds()
		// Response serialization happens between the last backend call
		// and the flush; attribute it to the flush phase.
		st.FlushNS = flushEnd.Sub(ct.execEnd).Nanoseconds()
	}
	if st.ParseNS < 0 {
		st.ParseNS = 0
	}
	if st.FlushNS < 0 {
		st.FlushNS = 0
	}
	s.recorder.Record(obs.ServerSpan{
		ID:      ct.spanID,
		Op:      ct.op,
		Start:   ct.start,
		Keys:    ct.keys,
		Parent:  ct.tc.Parent,
		Timings: st,
	})
	return st
}

// hitsBackend is an optional Backend refinement: a backend that can
// answer a multi-get by position — appending to hits one entry per key,
// nil for a miss — so the executor builds no map per transaction, and
// that can attribute the lock wait inside it when timed is set.
// storeBackend implements it; backends that cannot (the proxy) answer
// through Backend's maps and report wait 0.
type hitsBackend interface {
	appendHits(hits []*Item, keys []string, timed bool) ([]*Item, int64)
}

// tracedBackend is an optional Backend refinement for backends that
// can propagate the trace context further downstream — the RnB proxy,
// whose client re-fans the keys onto the server tier. When the traced
// command's backend implements it, the server passes the trace id with
// its own span as parent, chaining app → proxy → tier into one trace.
type tracedBackend interface {
	GetMultiTraced(tc obs.TraceContext, keys []string) (map[string]*Item, error)
}
