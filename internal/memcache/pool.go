package memcache

import (
	"bufio"
	"errors"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Client is the exchanger for a single server: every command (see
// command.go) is routed to one of up to Size connections and exchanged
// on the caller's own goroutine — a connection (see pconn) has no writer
// or reader goroutine behind it. A multi-get may also be split in two
// (SendGet, Pending.Collect), so one goroutine can have requests out to
// many servers at once. The codec is the text protocol by
// default and the binary protocol (quiet-get pipelining) when
// PoolConfig.Binary is set. Both formats answer strictly in request
// order, so the same FIFO machinery drives either. Dial and DialBinary
// build the one-connection client; NewPool any size.
//
// RnB's premise (paper §II, §V) is that per-transaction server cost
// dominates, so the client must drive many servers concurrently with
// few, fat transactions, and concurrent callers must not wait a full
// round trip each for one socket:
//
//   - connection pooling: up to Size connections per server, dialed as
//     soon as requests overlap and reaped when idle. A request goes to
//     a connection whose pipe is empty before it shares one — the
//     server runs one connection's requests one after the other, so
//     two requests on two connections use two of its cores and two on
//     one connection use one;
//   - request pipelining: once Size connections are open, callers
//     share them. Each encodes its request under the connection's
//     write mutex, and the last of the writers queued there flushes
//     for all of them (many commands, one syscall); the first caller to
//     collect reads the replies in order, its own and any that arrived
//     with it. On an empty pipe a round trip is one write → flush → read
//     with nobody woken at all.
//
// A network-level failure fails the operation (the caller's breaker
// quarantines the server), and only idempotent requests are replayed —
// once, per request, when their connection dies under them. Requests
// that never reached the wire are rerouted to another connection
// regardless of idempotence, because nothing was applied server-side. A
// connection the server closed while idle is discovered by its next
// request. A closed Client stays closed.
type Client struct {
	addr    string
	timeout time.Duration
	size    int
	depth   int
	idle    time.Duration
	gauges  *PoolGauges
	rttObs  func(time.Duration)
	codec   codec

	// tracing enables wire-level trace propagation; traceOK caches the
	// handshake outcome (0 unknown, 1 negotiated, 2 plain server) — one
	// address speaks one banner, so the answer holds for every
	// connection. With tracing off the wire carries zero extra bytes.
	tracing atomic.Bool
	traceOK atomic.Int32

	mu      sync.Mutex
	cond    *sync.Cond
	conns   []*pconn
	dialing int
	closed  bool
	reaper  *time.Timer // runs reapIdle; nil when reaping is off

	// The adds AddLater queued on a one-connection client, already
	// encoded and oldest first, wait in later for the next writer on the
	// connection; laterAt marks where each ends and when it was queued.
	// laterMu alone guards them and now, the age bound's clock (a writer
	// takes it under its connection's mu, never the other way round), so
	// queuing never waits for a round trip in flight.
	laterMu sync.Mutex
	later   []byte
	laterAt []laterAdd
	now     func() time.Time

	transactions atomic.Uint64
}

// PoolConfig parameterizes a Client. The zero value picks the defaults.
type PoolConfig struct {
	// Size is the maximum number of connections to the server
	// (default 4). Connections are dialed on demand: a fresh client
	// holds one, and opens another whenever a request finds every open
	// connection busy with an earlier one, until Size are open.
	Size int
	// Depth bounds how many replies already buffered behind its own a
	// reader decodes for other callers before it returns (default 32).
	// Once Size connections are open a request joins the shortest pipe;
	// it never waits for one to shorten.
	Depth int
	// IdleTimeout reaps connections that served no request for this
	// long (default 30s; <= 0 disables reaping). A reaped-to-empty client
	// redials on the next request.
	IdleTimeout time.Duration
	// Gauges, when non-nil, receives the client's instrumentation;
	// several clients (one per server) may share one PoolGauges for a
	// tier-wide view.
	Gauges *PoolGauges
	// RTTObserver, when non-nil, receives every request's wall time
	// from submission to completion — queueing for a connection and
	// replays included, because that is the latency the caller saw.
	// Failed requests are stamped too (they are the tail).
	RTTObserver func(time.Duration)
	// Binary switches the client to the memcached binary wire format: a
	// multiget is pipelined as N quiet gets (GetKQ) plus one terminating
	// Noop instead of N text "VALUE" parses, and every other command
	// becomes a fixed 24-byte-header frame. Pipelining, failure semantics
	// (never-written resubmit, idempotent replay-once) and RTT observation
	// are the same in both formats. The server sniffs the first byte per
	// connection, so text and binary clients coexist on one port.
	Binary bool
}

// Client defaults.
const (
	DefaultPoolSize    = 4
	DefaultPoolDepth   = 32
	DefaultIdleTimeout = 30 * time.Second
)

var (
	// errPoolClosed fails requests submitted after Close; errReaped is
	// the teardown cause of a connection the reaper closed.
	errPoolClosed = errors.New("memcache: client closed")
	errReaped     = errors.New("memcache: idle connection reaped")
)

// Dial connects a one-connection text-protocol client to the server at
// addr. timeout <= 0 means no I/O deadline.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return NewPool(addr, timeout, PoolConfig{Size: 1})
}

// DialBinary is Dial speaking the memcached binary protocol: a
// multi-get is N quiet gets plus a Noop in one write — one transaction
// on the wire, like the libmemcached behavior the paper's
// micro-benchmarks rely on.
func DialBinary(addr string, timeout time.Duration) (*Client, error) {
	return NewPool(addr, timeout, PoolConfig{Size: 1, Binary: true})
}

// NewPool connects a client of up to cfg.Size pipelined connections to
// the server at addr. One connection is established eagerly so an
// unreachable server fails construction; timeout <= 0 disables I/O
// deadlines.
func NewPool(addr string, timeout time.Duration, cfg PoolConfig) (*Client, error) {
	if cfg.Size <= 0 {
		cfg.Size = DefaultPoolSize
	}
	if cfg.Depth <= 0 {
		cfg.Depth = DefaultPoolDepth
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = DefaultIdleTimeout
	}
	if cfg.Gauges == nil {
		cfg.Gauges = &PoolGauges{}
	}
	p := &Client{
		addr:    addr,
		timeout: timeout,
		size:    cfg.Size,
		depth:   cfg.Depth,
		idle:    cfg.IdleTimeout,
		gauges:  cfg.Gauges,
		rttObs:  cfg.RTTObserver,
		codec:   textCodec{},
		now:     time.Now,
	}
	if cfg.Binary {
		p.codec = binCodec{}
	}
	p.cond = sync.NewCond(&p.mu)
	c, err := p.dial()
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.conns = append(p.conns, c)
	if p.idle > 0 {
		p.reaper = time.AfterFunc(p.reapPeriod(), p.reapIdle)
	}
	p.mu.Unlock()
	return p, nil
}

// Addr returns the server address.
func (p *Client) Addr() string { return p.addr }

// Transactions returns the round trips issued so far, replays included.
// An add carried in front of one (AddLater) rides that round trip and is
// not counted as another; the server still counts it as the transaction
// it executes.
func (p *Client) Transactions() uint64 { return p.transactions.Load() }

// Gauges returns the client's instrumentation.
func (p *Client) Gauges() *PoolGauges { return p.gauges }

// ConnsOpen reports the number of currently established connections.
func (p *Client) ConnsOpen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Close stops the reaper, tears down every connection, fails every
// pending request, drops the adds AddLater still holds, and waits for
// every pipe to empty. Idempotent.
func (p *Client) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	if p.reaper != nil {
		p.reaper.Stop()
	}
	conns := append([]*pconn(nil), p.conns...)
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, c := range conns {
		c.teardown(errPoolClosed)
	}
	for _, c := range conns {
		<-c.drained
	}
	p.dropLater()
	return nil
}

// reapPeriod is how often the reaper looks for idle connections.
func (p *Client) reapPeriod() time.Duration {
	return max(p.idle/4, 10*time.Millisecond)
}

// reapIdle closes connections idle past the idle timeout and re-arms
// its timer; dial-on-demand brings them back, so a quiet tier holds no
// sockets. A victim leaves the rotation under the lock that found its
// pipe empty, so no request is ever routed to a connection about to be
// reaped. It runs on a timer: the client owns no goroutine.
func (p *Client) reapIdle() {
	now := time.Now().UnixNano()
	var victims []*pconn
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	live := p.conns[:0]
	for _, c := range p.conns {
		if c.load.Load() == 0 && now-c.lastDone.Load() > int64(p.idle) {
			victims = append(victims, c)
		} else {
			live = append(live, c)
		}
	}
	p.conns = live
	p.reaper.Reset(p.reapPeriod())
	p.mu.Unlock()
	for _, c := range victims {
		p.gauges.ConnsReaped.Add(1)
		c.teardown(errReaped)
	}
}

// dial establishes one connection. It starts no goroutine.
func (p *Client) dial() (*pconn, error) {
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, err
	}
	c := &pconn{
		pool:    p,
		conn:    conn,
		r:       bufio.NewReaderSize(conn, 64<<10),
		w:       bufio.NewWriterSize(conn, 64<<10),
		drained: make(chan struct{}),
	}
	c.lastDone.Store(time.Now().UnixNano())
	p.gauges.ConnsDialed.Add(1)
	p.gauges.ConnsOpen.Add(1)
	return c, nil
}

// route reserves a place on a connection (its load, given back when the
// request is collected) in this order of preference: a connection whose
// pipe is empty; a fresh dial while the client is below Size; the
// shortest pipe. It never waits for a reply to be collected — a caller
// may hold uncollected requests on other servers (DESIGN.md
// "Transport") — only, when no connection is open, for the dials already
// in flight.
func (p *Client) route() (*pconn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, errPoolClosed
		}
		// Drop dead connections and find the shortest pipe.
		live := p.conns[:0]
		var best *pconn
		for _, c := range p.conns {
			if !c.dead.Load() {
				live = append(live, c)
				if best == nil || c.load.Load() < best.load.Load() {
					best = c
				}
			}
		}
		p.conns = live
		canDial := len(p.conns)+p.dialing < p.size
		if best != nil && (!canDial || best.load.Load() == 0) {
			best.load.Add(1)
			return best, nil
		}
		if !canDial {
			p.cond.Wait() // every connection is still being dialed
			continue
		}
		p.dialing++
		p.mu.Unlock()
		c, err := p.dial()
		p.mu.Lock()
		p.dialing--
		// Whatever the outcome, the callers waiting on this dial re-route
		// (holding p.mu makes the wake race-free against a caller about to
		// Wait).
		p.cond.Broadcast()
		if err != nil {
			return nil, err
		}
		if p.closed {
			p.mu.Unlock()
			c.teardown(errPoolClosed)
			p.mu.Lock()
			return nil, errPoolClosed
		}
		c.load.Add(1)
		p.conns = append(p.conns, c)
		return c, nil
	}
}

// connDeadError marks request failures caused by the connection dying
// (as opposed to the request's own I/O), so exchange can distinguish
// "this request's socket broke" for replay accounting.
type connDeadError struct{ cause error }

func (e *connDeadError) Error() string { return "memcache: connection failed: " + e.cause.Error() }
func (e *connDeadError) Unwrap() error { return e.cause }

// Pending is one request sent and not yet collected: SendGet fills it
// in and Collect completes it, exactly once. It lives wherever the
// caller keeps it — a local, an array element — so a request in flight
// costs no allocation of its own.
type Pending struct {
	p        *Client
	c        *pconn       // nil when the send failed; err says why
	s        *poolRequest // c's slot: the request, then its reply
	err      error
	start    time.Time
	replayed bool
}

// exchange is send followed by collect: it moves q to the server and
// leaves the reply in rep, on the caller's goroutine.
func (p *Client) exchange(q *request, rep *reply) error {
	var h Pending
	p.send(q, &h, true)
	return h.collect(rep)
}

// send routes q and writes it, resubmitting on another connection a
// request that never reached the wire (mutation or not: nothing was
// applied). claim is for a caller that collects next and nothing else
// first: on an empty pipe it takes the reader role at once, which saves
// the round trip's only other lock (see pconn).
func (p *Client) send(q *request, h *Pending, claim bool) {
	if h.p == nil { // not a replay
		*h = Pending{p: p}
		if p.rttObs != nil || q.tc.Valid() {
			h.start = time.Now()
		}
	}
	h.c, h.err = nil, nil
	for resubmits := 0; ; {
		c, err := p.route()
		if err != nil {
			// Routing fails only when the client is closed or a fresh dial
			// failed — the fast server-down signal the breakers feed on.
			h.err = err
			return
		}
		if h.s = c.send(q, h.start, claim); h.s != nil {
			h.c = c
			return
		}
		c.release()
		// Bounded so a flapping server cannot spin it forever.
		if resubmits++; resubmits > 4 {
			h.err = &connDeadError{cause: c.cause}
			return
		}
		p.gauges.Resubmits.Add(1)
	}
}

// collect waits for the reply to h's request and leaves it in rep,
// replaying a written idempotent request, once, when its connection
// died; the RTT observer sees the whole wait, replay included.
func (h *Pending) collect(rep *reply) (err error) {
	p := h.p
	for err = h.err; h.c != nil; err = h.err {
		var q request // filled only when the connection died under it
		err = h.c.collect(h.s, rep, &q)
		if !IsConnFatal(err) || !q.cmd.idempotent() || h.replayed {
			break
		}
		h.replayed = true
		p.gauges.Replays.Add(1)
		p.send(&q, h, true)
	}
	if p.rttObs != nil {
		p.rttObs(time.Since(h.start))
	}
	return err
}

// poolRequest is one slot of a connection's pipe: the request a caller
// encoded and the reply decoded into it — by that caller, or by whoever
// read ahead of it. A connection keeps the slots it ever needed on a
// free list, so a request allocates none.
type poolRequest struct {
	request
	reply
	// next links the slot into the connection's FIFO or its free list.
	next *poolRequest
	// done says the outcome is in err: nil, the reply's error, or a
	// connDeadError. reads marks the holder of the reader role; parked a
	// collector waiting on wake for either. All three are guarded by
	// pconn.mu.
	err                 error
	done, reads, parked bool
	wake                chan struct{}
}

// pconn is one pooled connection, driven entirely by its callers.
//
// Writing: a caller encodes under wmu, which makes wire order and FIFO
// order one order, and the caller that finds no other writer queued
// behind it flushes for everyone before it.
//
// Reading: the FIFO holds the written, undecoded requests, and the
// reader role goes to the first caller that collects while nobody holds
// it — it alone touches r. It decodes the FIFO in order into each slot
// until its own is answered, then the replies whose bytes are already in
// r (handing the role over instead would cost each owner a wake-up and a
// turn in the run queue with its reply sitting in memory). An owner
// parked behind it is woken with its answer; one that has not started
// collecting finds it when it does. A caller parks only behind a reader
// at work on the socket, and a reader leaving with callers still parked
// hands the role to the first of them.
//
// Liveness (DESIGN.md "Transport"): nothing in send waits for a collect,
// which could wait on the sender itself through another caller. A
// socket write never starts with replies owed and nobody reading them —
// the writer reads them first — and a reader at work stays until every
// write that started behind it is done (writing): the server reads no
// request while it is stuck writing a reply.
type pconn struct {
	pool *Client
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	wmu     sync.Mutex
	writers atomic.Int32 // callers holding or queued on wmu
	carry   []byte       // the queued adds a writer took, under wmu
	// unflushed is the oldest slot whose bytes may still be in w, under
	// wmu: a writer that skips its flush leaves them to the next.
	unflushed *poolRequest

	// mu guards the FIFO (head, tail), the free slots, the reader role,
	// writing (the writes that rely on the reader) and cause. dead is
	// set under it, so joining the FIFO and teardown exclude each other,
	// and read without it by route.
	mu         sync.Mutex
	head, tail *poolRequest
	free       *poolRequest
	reading    bool
	writing    int
	cause      error // why the connection was torn down
	dead       atomic.Bool

	load     atomic.Int32 // requests routed here and not yet released
	lastDone atomic.Int64 // unixnano of the last release (or the dial)
	drained  chan struct{}
}

// release gives back the place route reserved on the connection.
func (c *pconn) release() {
	c.lastDone.Store(time.Now().UnixNano())
	c.load.Add(-1)
}

// send encodes q into the write buffer and joins the FIFO, returning the
// slot it took, or nil when the connection was found dead with nothing
// written. On a one-connection client the adds AddLater queued go first,
// in the same write.
func (c *pconn) send(q *request, start time.Time, claim bool) *poolRequest {
	p := c.pool
	p.gauges.Queued.Add(1)
	c.writers.Add(1)
	c.wmu.Lock()
	p.gauges.Queued.Add(-1)
	c.mu.Lock()
	if c.head != nil && !c.reading && !c.dead.Load() {
		// Replies are owed and nobody is reading them: the server may be
		// stuck writing them, so read them before writing anything.
		c.reading = true
		f := c.head
		c.mu.Unlock()
		c.read(nil, f, false, nil, nil)
		c.mu.Lock()
	}
	if c.dead.Load() {
		c.mu.Unlock()
		c.writers.Add(-1)
		c.wmu.Unlock()
		return nil
	}
	// The slot is complete — carried count included, which the binary
	// decode reads — before it is linked: from then on the reader may
	// decode into it, whatever the server chooses to send.
	s := c.free
	if s == nil {
		s = &poolRequest{wake: make(chan struct{}, 1)}
	} else {
		c.free, s.next = s.next, nil
	}
	s.request = *q
	carried := 0
	if p.size == 1 {
		carried = p.takeLater(&c.carry)
		s.carried = carried
	}
	if q.tc.Valid() {
		s.queueNS = time.Since(start).Nanoseconds()
	}
	relies := c.head != nil // on the reader at work
	if relies {
		c.tail.next = s
		c.writing++
	} else {
		c.head, c.reading, s.reads = s, claim, claim
	}
	c.tail = s
	c.mu.Unlock()
	p.transactions.Add(1)
	p.gauges.RecordInFlight()
	// Armed before the first bytes of a batch, not at the flush: encode
	// itself writes to the socket when a value outgrows the buffer. A
	// reader of an empty pipe reads right after, so one call covers its
	// whole round trip.
	if p.timeout > 0 && s.reads {
		c.conn.SetDeadline(time.Now().Add(p.timeout))
	} else if p.timeout > 0 && c.w.Buffered() == 0 {
		c.conn.SetWriteDeadline(time.Now().Add(p.timeout))
	}
	var err error
	if carried > 0 {
		_, err = c.w.Write(c.carry)
	}
	if err == nil {
		err = p.codec.encode(c.w, &s.request)
	}
	// Whoever leaves with nobody queued behind flushes, so a writer that
	// skips its flush always has a later one to do it; a writer that
	// fails instead tears the connection down, which answers them all.
	if c.writers.Add(-1) == 0 && err == nil {
		err = c.w.Flush()
		c.unflushed = nil
	} else if c.unflushed == nil {
		c.unflushed = s
	}
	c.wmu.Unlock()
	if relies {
		c.mu.Lock()
		c.writing--
		c.mu.Unlock()
	}
	if carried > 0 {
		if err == nil {
			p.gauges.WriteBackCarried.Add(uint64(carried))
		} else {
			p.gauges.WriteBackDroppedConn.Add(uint64(carried))
		}
	}
	if err != nil {
		c.teardown(err)
	}
	return s
}

// collect waits for the outcome of s and copies it out. Either a reader
// answered it already, or the caller reads for it: at once when it took
// the role at send, else when nobody holds the role, else once the
// reader it parks behind wakes it with its answer or with the role. Then
// the slot goes back to the free list (a connection-fatal outcome copies
// the request into q first, for the replay) and the caller's place on
// the connection is released.
func (c *pconn) collect(s *poolRequest, rep *reply, q *request) error {
	armed, f := s.reads, s // a reader from send: s heads an empty pipe
	if !armed {
		c.mu.Lock()
		if !s.done && c.reading {
			s.parked = true
			c.mu.Unlock()
			<-s.wake
			c.mu.Lock()
		} else if !s.done {
			c.reading, s.reads = true, true
		}
		if !s.reads {
			err := c.give(s, rep, q)
			c.mu.Unlock()
			c.release()
			return err
		}
		f = c.head
		c.mu.Unlock()
	}
	err := c.read(s, f, armed, rep, q)
	c.release()
	return err
}

// read runs the reader role from f, the head of the FIFO: it decodes
// each reply into its slot in order, waking a parked owner with it. It
// goes on while own is unanswered, while a write that started behind
// the reader relies on it, and — at most Depth replies, so a server that
// answers faster than this loop decodes cannot keep one caller reading
// for the others forever — while replies sit buffered. With own nil it
// drains the FIFO, flushing on the way what other writers left in w (its
// caller holds wmu, so nothing joins). Then it hands the role to the
// first collector parked in the FIFO, which reads from the head, or
// frees it, and copies the outcome of own out (see give).
func (c *pconn) read(own, f *poolRequest, armed bool, rep *reply, q *request) (err error) {
	var wake *poolRequest
	for n := 0; ; n++ {
		if own == nil && f == c.unflushed {
			// Every reply ahead is in, so the server is reading: the
			// at most one buffer left in w cannot block for long.
			if c.pool.timeout > 0 {
				c.conn.SetWriteDeadline(time.Now().Add(c.pool.timeout))
			}
			if err := c.w.Flush(); err != nil {
				c.teardown(err)
			}
			c.unflushed = nil
		}
		derr := c.decode(f, armed && f == own)
		c.mu.Lock()
		c.head, f.next = f.next, nil
		f.done, f.err = true, derr
		c.pool.gauges.InFlight.Add(-1)
		wake = nil
		if f.parked {
			f.parked, wake = false, f
		}
		if f = c.head; f == nil || own != nil && own.done && c.writing == 0 && (n >= c.pool.depth || c.r.Buffered() == 0) {
			break
		}
		c.mu.Unlock()
		if wake != nil {
			wake.wake <- struct{}{}
		}
	}
	var next *poolRequest
	for s := c.head; s != nil && next == nil; s = s.next {
		if s.parked {
			s.parked, s.reads, next = false, true, s
		}
	}
	c.reading = next != nil
	last := c.head == nil && c.dead.Load()
	if own != nil {
		err = c.give(own, rep, q)
	}
	c.mu.Unlock()
	if wake != nil {
		wake.wake <- struct{}{}
	}
	if next != nil {
		next.wake <- struct{}{}
	}
	if last {
		c.finish()
	}
	return err
}

// give copies the outcome of s out and puts the slot back on the free
// list, pinning nothing of its owner's. Called with c.mu held.
func (c *pconn) give(s *poolRequest, rep *reply, q *request) error {
	err := s.err
	*rep = s.reply
	if IsConnFatal(err) {
		*q = s.request
		q.carried = 0
	}
	*s = poolRequest{next: c.free, wake: s.wake}
	c.free = s
	return err
}

// decode reads the reply of s, the head of the FIFO, arming the read
// deadline first unless it already is.
func (c *pconn) decode(s *poolRequest, armed bool) error {
	if c.pool.timeout > 0 && !armed {
		c.conn.SetReadDeadline(time.Now().Add(c.pool.timeout))
	}
	err := c.pool.codec.decode(c.r, &s.request, &s.reply)
	if IsConnFatal(err) {
		// The stream is out of sync (I/O error or corrupt frame): every
		// response behind this one is unusable. Fail fast — and before
		// the caller hears of it, so its one replay is not routed back
		// onto this connection.
		return c.teardown(err)
	}
	return err
}

// teardown kills the connection: marks it dead (nobody joins the FIFO
// any more), closes the socket, fails every request in the FIFO — all
// written, so only idempotent ones replay — and drops the adds AddLater
// queued for it. A reader at work is left the head, whose read now
// fails; with nobody reading the head is failed too, so Close never
// waits on a request sent and not collected. It returns the error its
// caller should report: cause if this call tore the connection down,
// else a connDeadError naming the cause that did.
func (c *pconn) teardown(cause error) error {
	c.mu.Lock()
	if c.dead.Load() {
		c.mu.Unlock()
		return &connDeadError{cause: c.cause}
	}
	c.cause = cause
	c.dead.Store(true)
	stranded := c.head
	if c.reading && stranded != nil {
		stranded, c.head.next, c.tail = stranded.next, nil, c.head
	} else {
		c.head = nil
	}
	dead := &connDeadError{cause: cause}
	var wake *poolRequest // the parked owners, linked through next
	for stranded != nil {
		s := stranded
		stranded, s.next = s.next, nil
		s.done, s.err = true, dead
		c.pool.gauges.InFlight.Add(-1)
		if s.parked {
			s.parked, s.next, wake = false, wake, s
		}
	}
	empty := c.head == nil
	c.mu.Unlock()
	c.conn.Close()
	c.pool.dropLater()
	if cause != errPoolClosed && cause != errReaped {
		c.pool.gauges.ConnsFailed.Add(1)
	}
	for wake != nil {
		s := wake
		wake, s.next = s.next, nil
		s.wake <- struct{}{}
	}
	if empty {
		c.finish()
	}
	return cause
}

// finish runs once, when the FIFO of a dead connection has emptied: it
// takes the connection out of the rotation and closes drained.
func (c *pconn) finish() {
	p := c.pool
	p.mu.Lock()
	if i := slices.Index(p.conns, c); i >= 0 {
		p.conns = slices.Delete(p.conns, i, i+1)
	}
	p.mu.Unlock()
	p.gauges.ConnsOpen.Add(-1)
	close(c.drained)
}

// Bounds on the adds AddLater queues; both are fixed on purpose.
const (
	// writeBackMaxAge is how long a queued add may wait for a command to
	// carry it: of the order of a data-centre round trip, the window a
	// blocking add has anyway between the read that produced its value
	// and its arrival at the server.
	writeBackMaxAge = 2 * time.Millisecond
	// writeBackMaxBytes caps the queued bytes: half the write buffer, so
	// they and the command carrying them still leave in one write.
	writeBackMaxBytes = 32 << 10
	// quietAddOverhead bounds an encoded quiet add's bytes beyond its key
	// and value (text: verb, three numbers, noreply, two CRLFs; binary:
	// header and extras).
	quietAddOverhead = 64
)

// laterAdd is one queued add: where its bytes end in Client.later and
// when it was queued.
type laterAdd struct {
	end int
	at  time.Time
}

// AddLater is Add for a caller that does not need the answer. On a
// one-connection client it queues the add and returns at once: no
// syscall, no server wake-up, no wait for a round trip in flight. The
// command is checked as Add checks it and encoded immediately (the value
// is copied, so it may alias a reply's arena), and its bytes leave in
// front of the next command this client sends, in the same write: "add
// ... noreply" on the text wire, AddQ on the binary one. Connection
// order therefore keeps it ahead of any Set, Delete or other mutation
// issued on this Client after AddLater returned, and being an add it
// fills an empty slot or does nothing.
//
// It is best effort. The add is dropped, never retried, when the queued
// bytes would pass writeBackMaxBytes (ErrNotStored), when no command
// follows within writeBackMaxAge, or when the connection breaks or the
// client is closed first; the write-back gauges say which.
//
// A client of more connections sends an acknowledged Add instead: its
// sibling connections are not ordered against each other, so an
// unanswered add queued on one could be overtaken by the Delete or Set
// the caller issues next on another, and land after it — a value
// resurrected over its own deletion.
func (p *Client) AddLater(it *Item) error {
	if p.size > 1 {
		return p.Add(it)
	}
	if err := checkItem(it); err != nil {
		return err
	}
	p.laterMu.Lock()
	defer p.laterMu.Unlock()
	now := p.now()
	p.expireLater(now)
	if len(p.later)+len(it.Key)+len(it.Value)+quietAddOverhead > writeBackMaxBytes {
		p.gauges.WriteBackDroppedFull.Add(1)
		return ErrNotStored
	}
	p.later = p.codec.appendQuietAdd(p.later, it)
	p.laterAt = append(p.laterAt, laterAdd{end: len(p.later), at: now})
	p.gauges.WriteBackQueued.Add(1)
	return nil
}

// expireLater drops the queued adds older than writeBackMaxAge. Called
// with laterMu held.
func (p *Client) expireLater(now time.Time) {
	n := 0
	for n < len(p.laterAt) && now.Sub(p.laterAt[n].at) > writeBackMaxAge {
		n++
	}
	if n == 0 {
		return
	}
	cut := p.laterAt[n-1].end
	p.later = append(p.later[:0], p.later[cut:]...)
	kept := copy(p.laterAt, p.laterAt[n:])
	p.laterAt = p.laterAt[:kept]
	for i := range p.laterAt {
		p.laterAt[i].end -= cut
	}
	p.gauges.WriteBackDroppedAge.Add(uint64(n))
}

// takeLater swaps the queued adds still young enough into *buf, a
// writer's spare buffer, and reports how many there are. Called by a
// writer holding its connection's wmu and mu, so the order writers take
// the queue in is the order its bytes reach the wire.
func (p *Client) takeLater(buf *[]byte) int {
	p.laterMu.Lock()
	defer p.laterMu.Unlock()
	if len(p.laterAt) == 0 {
		return 0
	}
	p.expireLater(p.now())
	n := len(p.laterAt)
	p.later, *buf = (*buf)[:0], p.later
	p.laterAt = p.laterAt[:0]
	return n
}

// dropLater discards every queued add: the connection they were bound
// for is gone.
func (p *Client) dropLater() {
	p.laterMu.Lock()
	defer p.laterMu.Unlock()
	p.gauges.WriteBackDroppedConn.Add(uint64(len(p.laterAt)))
	p.later, p.laterAt = p.later[:0], p.laterAt[:0]
}

// SetClock replaces the clock the write-back age bound reads (tests).
func (p *Client) SetClock(now func() time.Time) {
	p.laterMu.Lock()
	defer p.laterMu.Unlock()
	p.now = now
}
