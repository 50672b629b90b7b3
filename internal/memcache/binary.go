package memcache

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"rnb/internal/obs"
)

// Binary protocol support (the memcached binary wire format, which
// libmemcached-based tools such as memaslap use by default): the frame
// layout and the server half of the codec. The server sniffs the first
// byte of each connection: 0x80 selects the binary codec, anything else
// the text codec, mirroring memcached serving both protocols on one
// port.

const (
	binMagicReq = 0x80
	binMagicRes = 0x81

	binHeaderLen = 24
)

// Binary opcodes (subset).
const (
	binOpGet       = 0x00
	binOpSet       = 0x01
	binOpAdd       = 0x02
	binOpReplace   = 0x03
	binOpDelete    = 0x04
	binOpIncrement = 0x05
	binOpDecrement = 0x06
	binOpFlush     = 0x08
	binOpGetQ      = 0x09
	binOpNoop      = 0x0a
	binOpVersion   = 0x0b
	binOpGetK      = 0x0c
	binOpGetKQ     = 0x0d
	binOpAppend    = 0x0e
	binOpPrepend   = 0x0f
	binOpStat      = 0x10
	binOpAddQ      = 0x12
	binOpTouch     = 0x1c
	binOpQuit      = 0x17
	// binOpSetP is this repository's pinning extension ("setp" in the
	// text protocol); chosen from the unused range.
	binOpSetP = 0xf0
)

// Binary status codes (subset).
const (
	binStatusOK          = 0x0000
	binStatusNotFound    = 0x0001
	binStatusExists      = 0x0002
	binStatusTooLarge    = 0x0003
	binStatusInvalidArgs = 0x0004
	binStatusNotStored   = 0x0005
	binStatusUnknownCmd  = 0x0081
	binStatusInternal    = 0x0084
)

// binHeader is a decoded request/response header.
type binHeader struct {
	magic    byte
	opcode   byte
	keyLen   uint16
	extraLen uint8
	status   uint16 // vbucket id in requests
	bodyLen  uint32
	opaque   uint32
	cas      uint64
}

func (h *binHeader) decode(buf []byte) error {
	if len(buf) < binHeaderLen {
		return fmt.Errorf("memcache: short binary header")
	}
	h.magic = buf[0]
	h.opcode = buf[1]
	h.keyLen = binary.BigEndian.Uint16(buf[2:4])
	h.extraLen = buf[4]
	// buf[5] is the data type, always 0.
	h.status = binary.BigEndian.Uint16(buf[6:8])
	h.bodyLen = binary.BigEndian.Uint32(buf[8:12])
	h.opaque = binary.BigEndian.Uint32(buf[12:16])
	h.cas = binary.BigEndian.Uint64(buf[16:24])
	if uint32(h.keyLen)+uint32(h.extraLen) > h.bodyLen {
		return fmt.Errorf("memcache: binary header key+extras exceed body")
	}
	return nil
}

func (h *binHeader) encode(buf []byte) {
	buf[0] = h.magic
	buf[1] = h.opcode
	binary.BigEndian.PutUint16(buf[2:4], h.keyLen)
	buf[4] = h.extraLen
	buf[5] = 0
	binary.BigEndian.PutUint16(buf[6:8], h.status)
	binary.BigEndian.PutUint32(buf[8:12], h.bodyLen)
	binary.BigEndian.PutUint32(buf[12:16], h.opaque)
	binary.BigEndian.PutUint64(buf[16:24], h.cas)
}

// appendHead appends the frame's header, extras and key to b, filling
// in h's three length fields; valueLen bytes of value follow it.
func (h binHeader) appendHead(b []byte, extras []byte, key string, valueLen int) []byte {
	h.keyLen = uint16(len(key))
	h.extraLen = uint8(len(extras))
	h.bodyLen = uint32(len(extras) + len(key) + valueLen)
	var hdr [binHeaderLen]byte
	h.encode(hdr[:])
	b = append(b, hdr[:]...)
	b = append(b, extras...)
	return append(b, key...)
}

// write emits one frame, request or response: h names it. Allocation-
// and copy-free: header, extras and key (24 + ≤20 + ≤250 bytes) are
// appended straight into the writer's own free space and handed back to
// it; only the value, which already lives on the caller's heap, is
// streamed separately. The early flush keeps that free space large
// enough, so append never has to grow the slice onto the heap.
func (h binHeader) write(w *bufio.Writer, extras []byte, key string, value []byte) error {
	if w.Available() < binHeaderLen+len(extras)+len(key) {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	if _, err := w.Write(h.appendHead(w.AvailableBuffer(), extras, key, len(value))); err != nil {
		return err
	}
	_, err := w.Write(value)
	return err
}

// writeBinResponse emits one response frame.
func writeBinResponse(w *bufio.Writer, opcode byte, status uint16, opaque uint32,
	cas uint64, extras []byte, key string, value []byte) error {
	h := binHeader{magic: binMagicRes, opcode: opcode, status: status, opaque: opaque, cas: cas}
	return h.write(w, extras, key, value)
}

// binServer is the server half of the binary wire format — the inverse
// of binCodec — and the only server code that knows binary bytes: frame
// validation, the opcode table, the trace frame, and the one table
// turning an outcome into a status.
//
// A run of quiet gets (GetQ/GetKQ) is presented as ONE multi-key get,
// so the executor issues one Backend.GetMulti for it and RnB bundling
// (and the proxy) work identically under both protocols. The Noop that
// ends a run is part of that request, not a command of its own.
type binServer struct {
	// keys and gets describe the get being served — key i was asked for
	// by frame gets[i] — and are reused across requests. While a get is
	// being read its key bytes collect in keyBuf; runKeys then cuts keys
	// out of ONE string, so a run of n quiet gets costs the allocation a
	// text get line does, not n.
	keys   []string
	gets   []binGet
	keyBuf []byte

	opcode byte   // of the frame that made (or ended) the request
	opaque uint32 // of that frame; echoed in its response
	noop   bool   // the get was a quiet run ended by a Noop, to be answered

	traceOpaque uint32 // of the last trace frame; echoed in the timing record
}

// binGet is the frame one key of a get arrived in.
type binGet struct {
	opcode byte
	opaque uint32
	keyEnd int // where the key ends in keyBuf; it starts where the last one ended
}

// addKey records one frame of the get being read.
func (c *binServer) addKey(h *binHeader, key []byte) {
	c.keyBuf = append(c.keyBuf, key...)
	c.gets = append(c.gets, binGet{h.opcode, h.opaque, len(c.keyBuf)})
}

// runKeys returns the key list of the get just read.
func (c *binServer) runKeys() []string {
	run := string(c.keyBuf)
	start := 0
	for _, g := range c.gets {
		c.keys = append(c.keys, run[start:g.keyEnd])
		start = g.keyEnd
	}
	return c.keys
}

// binCommands maps a request opcode to its command — binOpcodes read
// backwards, plus the opcodes no Conn command sends on its own. The four
// get opcodes are one command, and so are Add and its quiet form AddQ
// (write tells them apart); a Set frame carrying a token becomes a cas
// in read.
var binCommands = map[byte]command{
	binOpGet: cmdGet, binOpGetK: cmdGet, binOpGetQ: cmdGet, binOpGetKQ: cmdGet,
	binOpSet: cmdSet, binOpSetP: cmdSetPinned, binOpAdd: cmdAdd, binOpAddQ: cmdAdd, binOpReplace: cmdReplace,
	binOpAppend: cmdAppend, binOpPrepend: cmdPrepend,
	binOpIncrement: cmdIncr, binOpDecrement: cmdDecr, binOpDelete: cmdDelete, binOpTouch: cmdTouch,
	binOpFlush: cmdFlushAll, binOpVersion: cmdVersion, binOpStat: cmdStats,
	binOpNoop: cmdNoop, binOpQuit: cmdQuit, binOpTrace: cmdTrace,
}

// binExtras is the extras length a command's frame must carry, for the
// commands that read their extras.
var binExtras = map[command]int{
	cmdSet: 8, cmdSetPinned: 8, cmdAdd: 8, cmdReplace: 8, cmdAppend: 0, cmdPrepend: 0,
	cmdIncr: 20, cmdDecr: 20, cmdTouch: 4, cmdTrace: 16,
}

// badFrame answers a frame whose extras do not fit its opcode. (An
// empty key is the backend's ErrBadKey, which maps to the same status.)
const badFrame = clientError("invalid arguments")

func (c *binServer) read(r *bufio.Reader, q *serverRequest) error {
	*q = serverRequest{}
	c.keys = c.keys[:0]
	c.gets = c.gets[:0]
	c.keyBuf = c.keyBuf[:0]
	c.noop = false
	var h binHeader
	for {
		// The header is decoded in place inside the reader's buffer via
		// Peek, so framing costs no allocation — and a frame that ends a
		// quiet run without belonging to it can be left unread.
		hdr, err := r.Peek(binHeaderLen)
		if err != nil {
			return err
		}
		if err := h.decode(hdr); err != nil {
			return err
		}
		if h.magic != binMagicReq {
			return fmt.Errorf("memcache: bad binary magic 0x%02x", h.magic)
		}
		if h.bodyLen > MaxValueLen+uint32(h.keyLen)+uint32(h.extraLen) {
			return fmt.Errorf("memcache: binary body too large (%d)", h.bodyLen)
		}
		quiet := h.opcode == binOpGetQ || h.opcode == binOpGetKQ
		if len(c.gets) > 0 && !quiet {
			// The run ends here: at its Noop, which is consumed and
			// answered with it, or at a blocking command or trace frame,
			// which stays in the buffer as the next request.
			q.cmd = cmdGet
			q.keys = c.runKeys()
			if h.opcode != binOpNoop {
				q.chained = true
				return nil
			}
			c.noop = true
			c.opcode = h.opcode
			c.opaque = h.opaque
			_, err := r.Discard(binHeaderLen + int(h.bodyLen))
			return err
		}
		if _, err := r.Discard(binHeaderLen); err != nil {
			return err
		}
		keyEnd := uint32(h.extraLen) + uint32(h.keyLen)
		if quiet && h.bodyLen <= 4096 {
			// Quiet gets — the pipelined hot path — parse their key
			// straight out of the buffer; only the key bytes survive.
			body, err := r.Peek(int(h.bodyLen))
			if err != nil {
				return err
			}
			c.addKey(&h, body[h.extraLen:keyEnd])
			if _, err := r.Discard(int(h.bodyLen)); err != nil {
				return err
			}
			continue
		}
		// Value-carrying commands copy the body onto the heap because the
		// store retains it.
		body := make([]byte, h.bodyLen)
		if _, err := io.ReadFull(r, body); err != nil {
			return err
		}
		extras := body[:h.extraLen]
		value := body[keyEnd:]
		c.opcode = h.opcode
		c.opaque = h.opaque
		q.cmd = cmdUnknown
		if cmd, known := binCommands[h.opcode]; known {
			q.cmd = cmd
		}
		if q.cmd == cmdGet {
			c.addKey(&h, body[h.extraLen:keyEnd])
			if quiet { // an oversized quiet frame: it joins the run like the rest
				continue
			}
			q.keys = c.runKeys()
			return nil
		}
		key := string(body[h.extraLen:keyEnd])
		q.key = key
		if want, checked := binExtras[q.cmd]; checked && len(extras) != want {
			q.bad = badFrame
			return nil
		}
		switch q.cmd {
		case cmdSet, cmdSetPinned, cmdAdd, cmdReplace:
			q.item = &Item{
				Key:        key,
				Value:      value,
				Flags:      binary.BigEndian.Uint32(extras[0:4]),
				Expiration: int32(binary.BigEndian.Uint32(extras[4:8])),
			}
			// A cas store rides a Set frame carrying the token.
			if q.cmd == cmdSet && h.cas != 0 {
				q.cmd = cmdCAS
				q.item.CAS = h.cas
			}
		case cmdAppend, cmdPrepend:
			q.item = &Item{Key: key, Value: value}
		case cmdIncr, cmdDecr:
			// Extras: delta(8) initial(8) expiration(4). Matching the text
			// grammar, deltas are capped at 63 bits (the store computes in
			// int64) and a missing key is NOT_FOUND — auto-create (any
			// expiration other than 0xffffffff) is not supported, keeping
			// both wire formats byte-equivalent for the differential suite.
			q.delta = binary.BigEndian.Uint64(extras[0:8])
			if binary.BigEndian.Uint32(extras[16:20]) != binNoAutoCreate || q.delta > math.MaxInt64 {
				q.bad = badFrame
			}
		case cmdTouch:
			q.exp = int32(binary.BigEndian.Uint32(extras))
		case cmdTrace:
			// Its answer rides behind the traced command's, on this opaque.
			c.traceOpaque = h.opaque
			q.tc = obs.TraceContext{
				TraceID: binary.BigEndian.Uint64(extras[0:8]),
				Parent:  binary.BigEndian.Uint64(extras[8:16]),
			}
		case cmdUnknown:
			q.bad = errUnknownCommand
		}
		return nil
	}
}

func (c *binServer) write(w *bufio.Writer, q *serverRequest, p *serverReply) error {
	status := binStatus(p.err)
	var value []byte
	switch {
	case q.cmd == cmdGet:
		var extras [4]byte
		for i, g := range c.gets {
			quiet := g.opcode == binOpGetQ || g.opcode == binOpGetKQ
			var err error
			switch {
			case p.err != nil:
				// Report the failure on every opaque, quiet or not, so the
				// client does not wait for hits that will never come.
				err = writeBinResponse(w, g.opcode, status, g.opaque, 0, nil, "", nil)
			case p.hits[i] != nil:
				it := p.hits[i]
				key := ""
				if g.opcode == binOpGetK || g.opcode == binOpGetKQ {
					key = c.keys[i]
				}
				binary.BigEndian.PutUint32(extras[:], it.Flags)
				err = writeBinResponse(w, g.opcode, binStatusOK, g.opaque, it.CAS, extras[:], key, it.Value)
			case !quiet: // quiet misses are silent
				err = writeBinResponse(w, g.opcode, binStatusNotFound, g.opaque, 0, nil, "", nil)
			}
			if err != nil {
				return err
			}
		}
		if !c.noop {
			return nil
		}
		status = binStatusOK // the run's Noop is answered whatever the run did
	case q.cmd == cmdAdd && c.opcode == binOpAddQ && p.err == nil:
		return nil // a quiet add answers only its failure
	case p.err != nil: // a bare status frame
	case q.cmd == cmdIncr || q.cmd == cmdDecr:
		var body [8]byte
		binary.BigEndian.PutUint64(body[:], p.value)
		value = body[:]
	case q.cmd == cmdVersion:
		value = []byte(VersionBanner)
	case q.cmd == cmdStats:
		for i := 0; i+1 < len(p.stats); i += 2 {
			if err := writeBinResponse(w, c.opcode, binStatusOK, c.opaque, 0, nil, p.stats[i], []byte(p.stats[i+1])); err != nil {
				return err
			}
		}
		// The terminator below: empty key and value.
	}
	return writeBinResponse(w, c.opcode, status, c.opaque, 0, nil, "", value)
}

// binStatus is the binary wire's one outcome table — the inverse of the
// client's binStatusError: the status is chosen by the error, whichever
// opcode ran into it.
func binStatus(err error) uint16 {
	if err == nil {
		return binStatusOK
	}
	_, refused := err.(clientError) // never wrapped, so no errors.As
	switch {
	case errors.Is(err, ErrCacheMiss):
		return binStatusNotFound
	case errors.Is(err, ErrCASConflict):
		return binStatusExists
	case errors.Is(err, ErrNotStored):
		return binStatusNotStored
	case errors.Is(err, ErrTooLarge):
		return binStatusTooLarge
	case errors.Is(err, ErrBadKey), refused:
		return binStatusInvalidArgs
	case errors.Is(err, errUnknownCommand):
		return binStatusUnknownCmd
	default:
		// e.g. incr of a non-numeric value: the text grammar answers a
		// kept-connection reply error, so the binary side maps to the
		// generic bucket too.
		return binStatusInternal
	}
}

// writeTimings emits the binOpTrace response readBinTraceReply consumes,
// on the opaque of the trace frame that armed the command.
func (c *binServer) writeTimings(w *bufio.Writer, st *obs.ServerTimings) error {
	var body [binTraceBodyLen]byte
	for i, v := range timingWords(st) {
		binary.BigEndian.PutUint64(body[8*i:], v)
	}
	return writeBinResponse(w, binOpTrace, binStatusOK, c.traceOpaque, 0, nil, "", body[:])
}
