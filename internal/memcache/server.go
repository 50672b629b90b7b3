package memcache

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rnb/internal/obs"
)

// ServerStats are the server's own protocol counters, bumped in place;
// registerMetrics names them.
type ServerStats struct {
	CmdGet       atomic.Uint64
	CmdSet       atomic.Uint64
	GetHits      atomic.Uint64
	GetMisses    atomic.Uint64
	Transactions atomic.Uint64 // one per client command (text line or binary command; a quiet-get run counts once at its flush)
	CurrConns    atomic.Int64
	TotalConns   atomic.Uint64
}

// Backend is what a protocol Server serves from: the local Store, or —
// for an RnB proxy — a whole replicated cluster. GetMulti receives the
// complete key list of a get/gets command so a proxy can bundle it. The
// list is the connection's parse scratch: it is valid until the call
// returns and must not be retained.
type Backend interface {
	GetMulti(keys []string) (map[string]*Item, error)
	// GetsMulti is GetMulti with authoritative CAS tokens: an RnB proxy
	// must read from distinguished copies here, because only their
	// tokens are valid for a subsequent cas.
	GetsMulti(keys []string) (map[string]*Item, error)
	Set(it *Item) error
	// SetPinned services the RnB "setp" extension.
	SetPinned(it *Item) error
	Add(it *Item) error
	Replace(it *Item) error
	CompareAndSwap(it *Item) error
	Append(key string, data []byte) error
	Prepend(key string, data []byte) error
	// Increment adjusts a decimal value by delta (negative decrements,
	// clamping at zero) and returns the new value.
	Increment(key string, delta int64) (uint64, error)
	Delete(key string) error
	Touch(key string, exp int32) error
	FlushAll() error
}

// statusBackend is an optional Backend refinement: "stats" lines that
// are not metrics (addresses, states) and so are not in the registry.
// The RnB proxy implements it.
type statusBackend interface {
	BackendStats() map[string]string
}

// storeBackend adapts a Store to the Backend interface. The single-key
// mutations are the Store's own methods, promoted; only the reads and
// the two methods whose signatures differ are written out.
type storeBackend struct{ *Store }

func (b storeBackend) GetMulti(keys []string) (map[string]*Item, error) {
	out := make(map[string]*Item, len(keys))
	now := b.nowFn()
	for _, k := range keys {
		if it, _, err := b.get(k, now, false); err == nil {
			out[k] = it
		}
	}
	return out, nil
}
func (b storeBackend) GetsMulti(keys []string) (map[string]*Item, error) {
	return b.GetMulti(keys) // local tokens are always authoritative
}

// appendHits implements hitsBackend: the server's own read path, get and
// gets alike (local tokens are always authoritative). With timed set it
// also reports the shard-lock wait the batch accumulated.
func (b storeBackend) appendHits(hits []*Item, keys []string, timed bool) ([]*Item, int64) {
	var wait int64
	now := b.nowFn() // once per transaction, not per key
	for _, k := range keys {
		it, w, _ := b.get(k, now, timed) // nil on any error: a miss
		wait += w
		hits = append(hits, it)
	}
	return hits, wait
}
func (b storeBackend) SetPinned(it *Item) error { return b.Store.SetPinned(it, true) }
func (b storeBackend) FlushAll() error          { b.Store.FlushAll(); return nil }

// Server is a memcached protocol server over a Backend. It speaks both
// the text and the binary wire format on one port (sniffing the first
// byte per connection, like memcached -B auto); SetProtocols can
// restrict it to one of them.
type Server struct {
	store   *Store // nil when serving a non-Store backend
	backend Backend
	stats   ServerStats
	// reg names every counter the server exports; "stats" is a rendering
	// of it, like /metrics.
	reg *obs.Registry

	// recorder is the server-side flight recorder: per-phase histograms
	// plus a ring of recent ServerSpans, fed by every traced command.
	// Always present — tracing is a per-command client decision, so the
	// server must stand ready on every connection.
	recorder *obs.ServerRecorder

	// noText / noBinary disable one wire format (SetProtocols). Both
	// false — the zero value — serves both.
	noText   bool
	noBinary bool

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer wraps a Store in a protocol server.
func NewServer(store *Store) *Server { return newServer(storeBackend{store}, store) }

// NewServerBackend serves an arbitrary Backend (e.g. an RnB proxy).
func NewServerBackend(b Backend) *Server { return newServer(b, nil) }

func newServer(b Backend, store *Store) *Server {
	s := &Server{
		store:    store,
		backend:  b,
		reg:      obs.NewRegistry(),
		recorder: obs.NewServerRecorder(0),
		conns:    make(map[net.Conn]struct{}),
	}
	s.registerMetrics()
	return s
}

// Registry returns the server's metric registry, holding its memd_*
// families from birth. The daemon serves it on /metrics, and the
// "stats" command answers every unlabeled counter and gauge in it — so
// whatever else the process registers here (an RnB proxy's proxy_* and
// rnb_* families) is on both without a second list.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Recorder returns the server-side flight recorder (per-phase
// histograms plus the ServerSpan ring fed by traced commands).
func (s *Server) Recorder() *obs.ServerRecorder { return s.recorder }

// Store returns the server's storage engine, or nil when serving a
// custom backend.
func (s *Server) Store() *Store { return s.store }

// SetProtocols restricts the wire formats the server accepts ("text",
// "binary", or "both", the default). A connection opening with the
// disabled format is dropped at the sniff, before any command is
// processed. Must be called before Serve; it is not synchronized with
// live connections.
func (s *Server) SetProtocols(mode string) error {
	switch mode {
	case "both":
		s.noText, s.noBinary = false, false
	case "text":
		s.noText, s.noBinary = false, true
	case "binary":
		s.noText, s.noBinary = true, false
	default:
		return fmt.Errorf("memcache: unknown protocol mode %q (want text, binary, or both)", mode)
	}
	return nil
}

// Stats returns the server's counters.
func (s *Server) Stats() *ServerStats { return &s.stats }

// registerMetrics is the one place the server's counters are named:
// the seven protocol counters whatever the backend, the three store
// families only over a Store, and the recorder's per-phase histograms.
func (s *Server) registerMetrics() {
	st, reg := &s.stats, s.reg
	reg.Counter("memd_cmd_get", "Keys requested by get/gets commands.", st.CmdGet.Load)
	reg.Counter("memd_cmd_set", "Store commands served.", st.CmdSet.Load)
	reg.Counter("memd_get_hits", "Keys found by get.", st.GetHits.Load)
	reg.Counter("memd_get_misses", "Keys missed by get.", st.GetMisses.Load)
	reg.Counter("memd_transactions", "Client commands processed: a text line, a binary command, or a whole quiet-get run.", st.Transactions.Load)
	reg.Counter("memd_total_connections", "Connections accepted.", st.TotalConns.Load)
	reg.Gauge("memd_curr_connections", "Currently open connections.", st.CurrConns.Load)
	if store := s.store; store != nil {
		reg.Counter("memd_evictions", "Items evicted by the LRU.", store.Evictions)
		reg.Gauge("memd_curr_items", "Items currently stored.", func() int64 { return int64(store.Len()) })
		reg.Gauge("memd_bytes", "Bytes currently stored.", store.Bytes)
	}
	s.recorder.RegisterMetrics(reg)
}

// ListenAndServe listens on addr ("host:port"; ":0" picks a free port)
// and serves until Close. It returns the bound address via Addr once
// listening.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("memcache: server closed")
	}
	s.listener = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.stats.CurrConns.Add(1)
		s.stats.TotalConns.Add(1)
		go s.handleConn(conn)
	}
}

// Addr returns the listener address, or "" before Serve.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Close stops the listener, closes live connections, and waits for
// handlers to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.stats.CurrConns.Add(-1)
}

// The server side mirrors the client's command × codec × exchanger
// split (command.go): one connection loop moves requests, one executor
// runs them, and two server codecs — the inverse halves of textCodec and
// binCodec — are the only code that knows wire bytes.

// serverRequest is one request as a server codec presents it: the
// client's descriptor plus what only a server has to know.
type serverRequest struct {
	request
	// noreply (text) suppresses the answer to a well-formed command.
	noreply bool
	// bad is set when the bytes named cmd but did not parse. The
	// executor answers it without calling the backend, and noreply does
	// not silence it.
	bad error
	// chained (binary) marks a quiet-get run cut short by a blocking
	// command or a trace frame instead of a Noop: the next request shares
	// this one's flush, and an armed trace settles there.
	chained bool
}

// opName labels the request in a ServerSpan.
func (q *serverRequest) opName() string {
	if q.cmd == cmdGet && len(q.keys) > 1 {
		return "get_multi"
	}
	return commandNames[q.cmd]
}

// serverReply is what the executor hands back for a codec to serialize.
// hits and stats are per-connection scratch, reused across requests.
type serverReply struct {
	err   error    // the outcome; each codec owns one table turning it into bytes
	hits  []*Item  // get, gets: hits[i] answers keys[i], nil for a miss
	value uint64   // incr, decr: the new counter value
	stats []string // stats: name, value, name, value, ... in reply order
}

// clientError is a request the server understood but could not accept
// as written: CLIENT_ERROR on the text wire, invalid-arguments on the
// binary one.
type clientError string

func (e clientError) Error() string { return string(e) }

// errUnknownCommand answers a verb or opcode the server does not speak
// (text "ERROR", binary unknown-command).
var errUnknownCommand = errors.New("memcache: unknown command")

// serverCodec is the server half of one wire format: it turns bytes into
// one request and one reply into bytes. Implementations hold
// per-connection parse scratch, so each connection owns its own.
type serverCodec interface {
	// read parses the next request off r into q. An error means the
	// stream is gone or out of sync, and the connection is dropped.
	read(r *bufio.Reader, q *serverRequest) error
	// write serializes the reply to q. It does not flush.
	write(w *bufio.Writer, q *serverRequest, p *serverReply) error
	// writeTimings emits the record that follows a traced command's
	// flush.
	writeTimings(w *bufio.Writer, st *obs.ServerTimings) error
}

// serverConn is one connection's serving state: its endpoints, its codec
// and the request, reply and trace storage every command reuses.
type serverConn struct {
	srv   *Server
	codec serverCodec
	fr    *fillReader
	r     *bufio.Reader
	w     *bufio.Writer

	q serverRequest
	p serverReply

	// pending is a trace context waiting for the command it arms; ct is
	// that command's trace state once armed (it points at trace).
	pending obs.TraceContext
	ct      *connTrace
	trace   connTrace
}

// handleConn is the one loop that reads requests off a connection.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	// The fill reader stamps when bytes actually arrive, so traced
	// commands can report how long they queued in the read buffer.
	fr := &fillReader{c: conn}
	c := &serverConn{
		srv: s, fr: fr,
		r: bufio.NewReaderSize(fr, 64<<10),
		w: bufio.NewWriterSize(conn, 64<<10),
	}
	// Protocol sniff, as memcached does on a shared port: binary
	// requests always start with the 0x80 magic, which is not a
	// printable text-command byte.
	first, err := c.r.Peek(1)
	switch {
	case err != nil:
		return
	case first[0] == binMagicReq && !s.noBinary:
		c.codec = &binServer{}
	case first[0] != binMagicReq && !s.noText:
		c.codec = &textServer{}
	default:
		return // the wire format SetProtocols disabled
	}
	for {
		if quit, err := c.serveOne(); quit || err != nil {
			return
		}
	}
}

// serveOne moves one request through the server: read → arm a pending
// trace → execute → write the reply → flush → trace record. It is the
// whole per-transaction path, whichever wire format the connection
// speaks.
func (c *serverConn) serveOne() (quit bool, err error) {
	q, p := &c.q, &c.p
	var began time.Time
	if c.pending.Valid() {
		// The next command is traced, and its parse phase starts when its
		// first byte is in hand, not when the codec is done with it.
		c.r.Peek(1) // an error resurfaces in read
		began = time.Now()
	}
	if err := c.codec.read(c.r, q); err != nil {
		return false, err
	}
	if q.cmd == cmdTrace {
		// The trace prefix arms the NEXT command; it is not a transaction
		// of its own and sends no reply. A malformed one answers an error
		// and arms nothing.
		c.pending = q.tc
		if q.bad == nil {
			return false, nil
		}
		p.err = q.bad
		if err := c.codec.write(c.w, q, p); err != nil {
			return false, err
		}
		return false, c.w.Flush()
	}
	if c.pending.Valid() && c.ct == nil {
		c.trace = connTrace{
			tc:      c.pending,
			spanID:  c.srv.recorder.NextID(),
			op:      q.opName(),
			start:   began,
			queueNS: c.fr.sinceLastFill(began),
		}
		c.ct = &c.trace
		c.pending = obs.TraceContext{}
	}
	c.srv.execute(q, p, c.ct)
	if err := c.codec.write(c.w, q, p); err != nil {
		return false, err
	}
	if q.chained {
		return false, nil
	}
	var done time.Time
	if c.ct != nil {
		done = time.Now()
	}
	if err := c.w.Flush(); err != nil {
		return false, err
	}
	if c.ct != nil {
		st := c.srv.finishTrace(c.ct, done, time.Now())
		c.ct = nil
		if err := c.codec.writeTimings(c.w, &st); err != nil {
			return false, err
		}
		if err := c.w.Flush(); err != nil {
			return false, err
		}
	}
	return q.cmd == cmdQuit, nil
}

// execute runs one request against the backend. It is the only code
// that calls a Backend method on behalf of a connection, the only code
// that counts commands in ServerStats, and — when ct is non-nil — the
// only place a traced command's exec and lock-wait brackets are taken.
func (s *Server) execute(q *serverRequest, p *serverReply, ct *connTrace) {
	clear(p.hits) // do not pin the last reply's items until the next long get
	*p = serverReply{hits: p.hits[:0], stats: p.stats[:0]}
	// One transaction per request: a text line, a binary command, or a
	// whole quiet-get run (its Noop included).
	s.stats.Transactions.Add(1)
	if q.cmd.stores() {
		s.stats.CmdSet.Add(1)
	}
	if q.bad != nil {
		p.err = q.bad
		return
	}
	switch q.cmd {
	case cmdStats:
		p.stats = s.appendStats(p.stats)
		return
	case cmdVersion, cmdNoop, cmdQuit: // answered by the codec alone
		return
	}

	var start time.Time
	if ct != nil {
		start = time.Now()
		if ct.execStart.IsZero() {
			ct.execStart = start
		}
		switch q.cmd {
		case cmdGet, cmdGets:
			ct.keys += len(q.keys)
		case cmdFlushAll:
		default:
			ct.keys++
		}
	}
	be := s.backend
	switch q.cmd {
	case cmdGet, cmdGets:
		s.stats.CmdGet.Add(uint64(len(q.keys)))
		if p.hits, p.err = s.getMulti(q, p.hits, ct); p.err != nil {
			break
		}
		hits := 0
		for _, it := range p.hits {
			if it != nil {
				hits++
			}
		}
		s.stats.GetHits.Add(uint64(hits))
		s.stats.GetMisses.Add(uint64(len(q.keys) - hits))
	case cmdSet:
		p.err = be.Set(q.item)
	case cmdSetPinned:
		// RnB extension (§IV): a pinned set. The stored copy is exempt
		// from LRU eviction — used for distinguished copies so they can
		// never miss. Not part of stock memcached.
		p.err = be.SetPinned(q.item)
	case cmdAdd:
		p.err = be.Add(q.item)
	case cmdReplace:
		p.err = be.Replace(q.item)
	case cmdCAS:
		p.err = be.CompareAndSwap(q.item)
	case cmdAppend:
		p.err = be.Append(q.item.Key, q.item.Value)
	case cmdPrepend:
		p.err = be.Prepend(q.item.Key, q.item.Value)
	case cmdIncr, cmdDecr:
		delta := int64(q.delta) // the codecs cap it at 63 bits
		if q.cmd == cmdDecr {
			delta = -delta
		}
		p.value, p.err = be.Increment(q.key, delta)
	case cmdDelete:
		p.err = be.Delete(q.key)
	case cmdTouch:
		p.err = be.Touch(q.key, q.exp)
	case cmdFlushAll:
		p.err = be.FlushAll()
	}
	if ct != nil {
		now := time.Now()
		ct.execNS += now.Sub(start).Nanoseconds()
		ct.execEnd = now
	}
}

// getMulti is the executor's read: it appends to hits the answer to
// each of q.keys, nil for a miss. A backend that can answer by position
// (the store) does, with no map in between; any other (the proxy) is
// asked for its map — a plain get or gets, or for a traced get the
// refinement that propagates the context downstream.
func (s *Server) getMulti(q *serverRequest, hits []*Item, ct *connTrace) ([]*Item, error) {
	if be, ok := s.backend.(hitsBackend); ok {
		hits, wait := be.appendHits(hits, q.keys, ct != nil)
		if ct != nil {
			ct.waitNS += wait
		}
		return hits, nil
	}
	var items map[string]*Item
	var err error
	be, traced := s.backend.(tracedBackend)
	switch {
	case q.cmd == cmdGets:
		items, err = s.backend.GetsMulti(q.keys)
	case ct != nil && traced:
		items, err = be.GetMultiTraced(obs.TraceContext{TraceID: ct.tc.TraceID, Parent: ct.spanID}, q.keys)
	default:
		items, err = s.backend.GetMulti(q.keys)
	}
	if err != nil {
		return hits, err
	}
	for _, key := range q.keys {
		hits = append(hits, items[key])
	}
	return hits, nil
}

// appendStats appends the stats reply both wires serve: every unlabeled
// counter and gauge of the registry in name order — a memd_* family
// under its bare memcached name, anything else under its /metrics name
// — then the backend's non-metric lines in name order.
func (s *Server) appendStats(out []string) []string {
	s.reg.Scalars(func(name string, v int64) {
		out = append(out, strings.TrimPrefix(name, "memd_"), strconv.FormatInt(v, 10))
	})
	sb, ok := s.backend.(statusBackend)
	if !ok {
		return out
	}
	extra := sb.BackendStats()
	names := make([]string, 0, len(extra))
	for name := range extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, name, extra[name])
	}
	return out
}
