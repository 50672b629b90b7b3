package memcache

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is the pooled, pipelined exchanger for a single server,
// replacing the one-mutex-one-connection Client on hot paths. Every
// Conn command (see commands) is routed to a connection, encoded by a
// writer goroutine and decoded by a reader goroutine; the codec is the
// text protocol by default and the binary protocol (quiet-get
// pipelining) when PoolConfig.Binary is set. Both formats answer
// strictly in request order, so the same FIFO machinery drives either.
//
// Why it exists: RnB's premise (paper §II, §V) is that per-transaction
// server cost dominates, so the client must drive many servers
// concurrently with few, fat transactions. A single mutex-guarded
// connection serializes every concurrent caller on one round trip at a
// time; with M goroutines the fan-out the planner earns is thrown away
// at the socket. The Pool removes that ceiling twice over:
//
//   - connection pooling: up to Size connections per server, dialed on
//     demand and reaped when idle, so independent requests ride
//     independent round trips;
//   - request pipelining: each connection runs a single writer
//     goroutine that coalesces concurrently submitted requests into
//     batched writes (one flush for many commands) and a single reader
//     goroutine that demultiplexes the responses in request order —
//     the text protocol answers strictly in order, so FIFO demux is
//     exact. M concurrent callers therefore share one in-flight
//     connection without ever waiting a full round trip each.
//
// Error semantics mirror Client: a network-level failure fails the
// operation (the caller's breaker quarantines the server), and only
// idempotent requests are replayed — once, per pipelined request, when
// their connection dies under them. Requests that never reached the
// wire are rerouted to another connection regardless of idempotence,
// because nothing was applied server-side.
type Pool struct {
	commands

	addr    string
	timeout time.Duration
	size    int
	depth   int
	idle    time.Duration
	gauges  *PoolGauges
	rttObs  func(time.Duration)

	mu      sync.Mutex
	cond    *sync.Cond
	conns   []*pconn
	rr      int
	dialing int
	closed  bool

	reapStop chan struct{}
	reapDone chan struct{}

	transactions atomic.Uint64
}

// PoolConfig parameterizes a Pool. The zero value picks the defaults.
type PoolConfig struct {
	// Size is the maximum number of connections to the server
	// (default 4). Connections are dialed on demand: a fresh pool holds
	// one, and grows only while every open connection is saturated.
	Size int
	// Depth is the per-connection pipeline target: a connection with
	// this many requests queued or in flight is considered saturated
	// and further requests prefer another connection (default 32).
	Depth int
	// IdleTimeout reaps connections that served no request for this
	// long (default 30s; <= 0 disables reaping). A reaped-to-empty pool
	// redials on the next request.
	IdleTimeout time.Duration
	// Gauges, when non-nil, receives the pool's instrumentation;
	// several pools (one per server) may share one PoolGauges for a
	// tier-wide view.
	Gauges *PoolGauges
	// RTTObserver, when non-nil, receives every request's wall time
	// from submission to completion — queueing for a connection and
	// replays included, because that is the latency the caller actually
	// experienced. Failed requests are stamped too (they are the tail).
	RTTObserver func(time.Duration)
	// Binary switches the pool to the memcached binary wire format: a
	// multiget is pipelined as N quiet gets (GetKQ) plus one terminating
	// Noop instead of N text "VALUE" parses, and every other command
	// becomes a fixed 24-byte-header frame. The pipelining machinery,
	// failure semantics (never-written resubmit, idempotent replay-once)
	// and RTT observation are identical in both formats — only the
	// write/read halves differ. The server sniffs the first byte per
	// connection, so text and binary pools coexist on one port.
	Binary bool
}

// Pool defaults.
const (
	DefaultPoolSize    = 4
	DefaultPoolDepth   = 32
	DefaultIdleTimeout = 30 * time.Second
)

// errPoolClosed fails requests submitted after Close.
var errPoolClosed = errors.New("memcache: pool closed")

// NewPool connects a pooled, pipelined client to the server at addr.
// Exactly like Dial, one connection is established eagerly so an
// unreachable server fails construction; timeout <= 0 disables I/O
// deadlines.
func NewPool(addr string, timeout time.Duration, cfg PoolConfig) (*Pool, error) {
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
	p := &Pool{
		addr:    addr,
		timeout: timeout,
		size:    cfg.Size,
		depth:   cfg.Depth,
		idle:    cfg.IdleTimeout,
		gauges:  cfg.Gauges,
		rttObs:  cfg.RTTObserver,
	}
	p.commands.via, p.commands.codec = p, textCodec{}
	if cfg.Binary {
		p.commands.codec = binCodec{}
	}
	p.cond = sync.NewCond(&p.mu)
	c, err := p.dial()
	if err != nil {
		return nil, err
	}
	p.conns = append(p.conns, c)
	if p.idle > 0 {
		p.reapStop = make(chan struct{})
		p.reapDone = make(chan struct{})
		go p.reapLoop()
	}
	return p, nil
}

// Addr returns the server address.
func (p *Pool) Addr() string { return p.addr }

// Transactions returns the number of round trips issued so far
// (replays included).
func (p *Pool) Transactions() uint64 { return p.transactions.Load() }

// AddLater is Add, acknowledged before it returns. A pool's sibling
// connections are not ordered against each other: an unanswered add
// queued on one could be overtaken by the Delete or Set the caller
// issues next, if the pool routes that to another, and then land after
// it — a value resurrected over its own deletion. Only a single
// connection gives the order Client.AddLater relies on; the asymmetry
// goes when the pool becomes the one exchanger.
func (p *Pool) AddLater(it *Item) error { return p.Add(it) }

// Gauges returns the pool's instrumentation.
func (p *Pool) Gauges() *PoolGauges { return p.gauges }

// ConnsOpen reports the number of currently established connections.
func (p *Pool) ConnsOpen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Close tears down every connection, fails every pending request, and
// waits for the pool's goroutines to exit. Safe to call twice.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	conns := append([]*pconn(nil), p.conns...)
	p.cond.Broadcast()
	p.mu.Unlock()
	if p.reapStop != nil {
		close(p.reapStop)
		<-p.reapDone
	}
	for _, c := range conns {
		c.teardown(errPoolClosed)
	}
	for _, c := range conns {
		<-c.drained
	}
	return nil
}

// reapLoop closes connections that have been idle past the idle
// timeout. Dial-on-demand brings them back, so a quiet tier holds no
// sockets.
func (p *Pool) reapLoop() {
	defer close(p.reapDone)
	period := p.idle / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-p.reapStop:
			return
		case <-tick.C:
		}
		now := time.Now().UnixNano()
		var victims []*pconn
		p.mu.Lock()
		for _, c := range p.conns {
			if c.load() == 0 && now-c.lastDone.Load() > int64(p.idle) {
				victims = append(victims, c)
			}
		}
		p.mu.Unlock()
		for _, c := range victims {
			p.gauges.ConnsReaped.Add(1)
			c.teardown(errors.New("memcache: idle connection reaped"))
		}
	}
}

// dial establishes one pipelined connection and starts its writer and
// reader goroutines.
func (p *Pool) dial() (*pconn, error) {
	conn, err := net.Dial("tcp", p.addr)
	if err != nil {
		return nil, err
	}
	c := &pconn{
		pool:     p,
		conn:     conn,
		r:        bufio.NewReaderSize(conn, 64<<10),
		w:        bufio.NewWriterSize(conn, 64<<10),
		reqs:     make(chan *poolRequest, p.depth),
		inflight: make(chan *poolRequest, p.depth),
		stop:     make(chan struct{}),
		drained:  make(chan struct{}),
	}
	c.lastDone.Store(time.Now().UnixNano())
	c.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
	p.gauges.ConnsDialed.Add(1)
	p.gauges.ConnsOpen.Add(1)
	return c, nil
}

// route returns a connection with pipeline headroom, dialing a new one
// when every open connection is saturated and the pool is below Size,
// and blocking (a "waiter") when the pool is saturated outright.
func (p *Pool) route() (*pconn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	registered := false
	unregister := func() {
		if registered {
			p.gauges.Waiters.Add(-1)
			registered = false
		}
	}
	for {
		if p.closed {
			unregister()
			return nil, errPoolClosed
		}
		// Drop dead connections from the rotation.
		live := p.conns[:0]
		for _, c := range p.conns {
			if !c.isDead() {
				live = append(live, c)
			}
		}
		p.conns = live
		// Round-robin over connections with headroom.
		if n := len(p.conns); n > 0 {
			for i := 0; i < n; i++ {
				c := p.conns[(p.rr+i)%n]
				if c.load() < p.depth {
					p.rr = (p.rr + i + 1) % n
					unregister()
					return c, nil
				}
			}
		}
		if len(p.conns)+p.dialing < p.size {
			unregister()
			p.dialing++
			p.mu.Unlock()
			c, err := p.dial()
			p.mu.Lock()
			p.dialing--
			// The dial slot just freed (and on success a fresh connection
			// is about to join the rotation) — both change the capacity
			// picture waiters parked on. Without this wake, a pool whose
			// Size dial slots all failed (a killed server can RST the
			// handshake so net.Dial itself errors) strands every waiter
			// that parked while those dials were in flight: the dialers
			// return their errors, the pool sits empty, and no completion
			// ever comes to broadcast. Holding p.mu here makes the wake
			// race-free against a waiter between its re-scan and Wait.
			if p.gauges.Waiters.Load() > 0 {
				p.cond.Broadcast()
			}
			if err != nil {
				return nil, err
			}
			if p.closed {
				p.mu.Unlock()
				c.teardown(errPoolClosed)
				<-c.drained
				p.mu.Lock()
				return nil, errPoolClosed
			}
			p.conns = append(p.conns, c)
			return c, nil
		}
		if !registered {
			// Register BEFORE the decisive re-scan, not after it: notify()
			// skips the broadcast when Waiters reads zero without taking
			// the pool lock, so a completion racing an unregistered scan
			// could otherwise slip between "scan saw no headroom" and
			// "waiter registered" and be missed forever. With the
			// register-then-rescan order, any completion the re-scan does
			// not observe must follow it (atomics are sequentially
			// consistent), and therefore observes the waiter.
			p.gauges.Waiters.Add(1)
			registered = true
			continue
		}
		// Saturated: wait for a completion (or a death) to free capacity.
		p.cond.Wait()
	}
}

// notify wakes routing waiters after a completion or a connection
// death changed pool capacity. The broadcast is skipped when nobody is
// waiting — the common case on the steady-state pipelined path, where a
// per-completion unconditional Broadcast showed up as avoidable
// cross-core traffic at high goroutine counts. See route() for why the
// unlocked Waiters check cannot strand a waiter.
//
// When somebody IS waiting, the broadcast must happen under the pool
// lock: a waiter holds p.mu from its decisive re-scan until Wait parks
// it on the cond's ticket list, so a lockless broadcast can land
// exactly in that window and be lost — if it was the last completion,
// the waiter strands forever. Taking the lock forces the broadcast to
// happen either before the re-scan (which then observes the freed
// capacity) or after the ticket exists (so the broadcast wakes it).
func (p *Pool) notify() {
	if p.gauges.Waiters.Load() == 0 {
		return
	}
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// connClosed finalizes a connection's teardown.
func (p *Pool) connClosed(c *pconn) {
	p.mu.Lock()
	for i, have := range p.conns {
		if have == c {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	p.gauges.ConnsOpen.Add(-1)
	p.notify()
}

// poolRequest is one pipelined request: the command descriptor the
// writer goroutine encodes, the reply the reader goroutine decodes
// into, and a completion channel. written flips before the request's
// first byte can hit the wire; a request that failed with written=false
// is safe to reroute even if it is a mutation.
type poolRequest struct {
	request
	reply
	written bool
	done    chan error

	// Traced requests measure their pool queue wait: submitted is
	// stamped at submission (zero otherwise) and queueNS receives the
	// submit-to-wire delay, written by the writer goroutine just before
	// the request's bytes go out. The completion channel orders that
	// write before the caller's read.
	submitted time.Time
}

func (r *poolRequest) complete(err error) { r.done <- err }

// connDeadError marks request failures caused by the connection dying
// (as opposed to the request's own I/O), so submit can distinguish
// "this request's socket broke" for replay accounting.
type connDeadError struct{ cause error }

func (e *connDeadError) Error() string { return "memcache: connection failed: " + e.cause.Error() }
func (e *connDeadError) Unwrap() error { return e.cause }

// exchange submits one request and waits for its completion.
func (p *Pool) exchange(q request) (reply, error) {
	req := &poolRequest{request: q, done: make(chan error, 1)}
	if q.tc.Valid() {
		req.submitted = time.Now()
	}
	err := p.submit(req)
	return req.reply, err
}

// submit routes req until it completes, applying the resubmit and
// replay rules.
func (p *Pool) submit(req *poolRequest) error {
	if p.rttObs != nil {
		start := time.Now()
		defer func() { p.rttObs(time.Since(start)) }()
	}
	idempotent := req.cmd.idempotent()
	replayed := false
	resubmits := 0
	for {
		c, err := p.route()
		if err != nil {
			// Routing fails only when the pool is closed or a fresh dial
			// failed — the fast server-down signal the breakers feed on.
			return err
		}
		if !c.enqueue(req) {
			// The connection died or filled between route and enqueue;
			// route again (no wire contact, so this costs nothing).
			continue
		}
		err = <-req.done
		if !IsConnFatal(err) {
			return err
		}
		if !req.written {
			// Never hit the wire: safe to resubmit, mutation or not —
			// bounded so a flapping pool cannot spin forever.
			resubmits++
			if resubmits > 4 {
				return err
			}
			p.gauges.Resubmits.Add(1)
			continue
		}
		// The request was written and its connection died. Replay only
		// idempotent requests, and only once per request — the
		// single-connection Client's stale-conn replay rule, applied per
		// pipelined request instead of per connection.
		if !idempotent || replayed {
			return err
		}
		replayed = true
		p.gauges.Replays.Add(1)
		req.written = false
	}
}

// pconn is one pipelined connection: a writer goroutine coalescing
// queued requests into batched flushes, and a reader goroutine
// completing them in FIFO order.
type pconn struct {
	pool *Pool
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	reqs     chan *poolRequest // submitted, not yet written
	inflight chan *poolRequest // written, awaiting their response

	qmu  sync.Mutex
	dead bool

	queued   atomic.Int32
	pending  atomic.Int32
	lastDone atomic.Int64 // unixnano of the last completion (or dial)

	stop     chan struct{}
	cause    error // teardown cause; written before close(stop), read only after <-stop
	stopOnce sync.Once
	wg       sync.WaitGroup
	drained  chan struct{}
}

// load returns how many requests this connection owns (queued plus in
// flight) — the routing measure of saturation.
func (c *pconn) load() int {
	return int(c.queued.Load()) + int(c.pending.Load())
}

func (c *pconn) isDead() bool {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	return c.dead
}

// enqueue hands a request to the writer goroutine. It returns false —
// and the caller reroutes — when the connection is dead or its queue
// is full. The qmu guard makes enqueue/teardown atomic: after teardown
// flips dead, no request can slip into the queue and be stranded.
func (c *pconn) enqueue(req *poolRequest) bool {
	c.qmu.Lock()
	defer c.qmu.Unlock()
	if c.dead {
		return false
	}
	select {
	case c.reqs <- req:
		c.queued.Add(1)
		c.pool.gauges.Queued.Add(1)
		return true
	default:
		return false
	}
}

// writeLoop is the connection's single writer: it takes queued
// requests, writes as many as are immediately available into the
// buffered writer, and flushes once — concurrent callers' commands
// ride one syscall.
func (c *pconn) writeLoop() {
	defer c.wg.Done()
	for {
		var req *poolRequest
		select {
		case <-c.stop:
			return
		case req = <-c.reqs:
		}
		for {
			c.queued.Add(-1)
			c.pool.gauges.Queued.Add(-1)
			req.written = true
			if !req.submitted.IsZero() {
				req.queueNS = time.Since(req.submitted).Nanoseconds()
			}
			c.pool.transactions.Add(1)
			if err := c.pool.codec.encode(c.w, &req.request); err != nil {
				// Dead before done: the caller's one replay must not be
				// routed back onto this connection.
				c.teardown(err)
				req.complete(err)
				return
			}
			c.pending.Add(1)
			c.pool.gauges.RecordInFlight()
			select {
			case c.inflight <- req:
			case <-c.stop:
				// The conn died while we held req: it is in neither channel,
				// so drain cannot see it — complete it here or its caller
				// blocks forever.
				c.pending.Add(-1)
				c.pool.gauges.InFlight.Add(-1)
				req.complete(&connDeadError{cause: c.cause})
				return
			}
			// Coalesce: anything else already queued joins this flush.
			select {
			case req = <-c.reqs:
				continue
			default:
			}
			break
		}
		if c.pool.timeout > 0 {
			c.conn.SetWriteDeadline(time.Now().Add(c.pool.timeout))
		}
		if err := c.w.Flush(); err != nil {
			c.teardown(err)
			return
		}
	}
}

// readLoop is the connection's single reader: it demultiplexes
// responses onto their requests strictly in write order (the text
// protocol guarantees in-order replies).
func (c *pconn) readLoop() {
	defer c.wg.Done()
	for {
		var req *poolRequest
		select {
		case <-c.stop:
			return
		case req = <-c.inflight:
		}
		if c.pool.timeout > 0 {
			c.conn.SetReadDeadline(time.Now().Add(c.pool.timeout))
		}
		err := c.pool.codec.decode(c.r, &req.request, &req.reply)
		c.pending.Add(-1)
		c.pool.gauges.InFlight.Add(-1)
		c.lastDone.Store(time.Now().UnixNano())
		if IsConnFatal(err) {
			// The stream is out of sync (I/O error or corrupt frame):
			// every response behind this one is unusable. Fail fast —
			// and before completing req, so the caller's one replay is
			// not routed back onto this connection.
			c.teardown(err)
			req.complete(err)
			return
		}
		req.complete(err)
		c.pool.notify()
	}
}

// teardown kills the connection: marks it dead (no new enqueues),
// stops the writer and reader, closes the socket, and fails everything
// still queued or in flight with cause. Idempotent.
func (c *pconn) teardown(cause error) {
	c.stopOnce.Do(func() {
		c.qmu.Lock()
		c.dead = true
		c.qmu.Unlock()
		c.cause = cause
		close(c.stop)
		c.conn.Close()
		if cause != errPoolClosed {
			c.pool.gauges.ConnsFailed.Add(1)
		}
		// The writer or reader itself may be calling teardown; draining
		// must wait for both to exit, so it runs on its own goroutine.
		go c.drain(cause)
	})
}

// drain completes teardown once the writer and reader have exited:
// every stranded request fails with a conn-dead error (in-flight
// requests were written — only idempotent ones replay; queued ones
// were not — they reroute freely).
func (c *pconn) drain(cause error) {
	c.wg.Wait()
	for {
		select {
		case req := <-c.inflight:
			c.pending.Add(-1)
			c.pool.gauges.InFlight.Add(-1)
			req.complete(&connDeadError{cause: cause})
		case req := <-c.reqs:
			c.queued.Add(-1)
			c.pool.gauges.Queued.Add(-1)
			req.complete(&connDeadError{cause: cause})
		default:
			c.pool.connClosed(c)
			close(c.drained)
			return
		}
	}
}
