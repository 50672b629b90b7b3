package memcache

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Client is the single-connection exchanger: every Conn command (see
// commands) becomes one write → flush → read on one socket under one
// mutex. It is the floor for a caller that issues one request at a
// time — a Pool of size 1 does the same round trip on the caller's
// goroutine and costs within a few percent of it (EXPERIMENTS.md "PR
// 20", BenchmarkPoolSweep) — and the one exchanger that can queue an
// unanswered add (AddLater), so tools and load generators where each
// goroutine owns its own Client use it. High-fan-out callers (the RnB
// client with many goroutines per server) should use Pool, which
// pipelines the same commands and codecs.
type Client struct {
	commands

	addr    string
	timeout time.Duration

	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer

	// req and rep hold the request being exchanged and its reply. The
	// codec sees them through an interface, which would force a local
	// onto the heap once per call; the client's own storage costs
	// nothing.
	req request
	rep reply

	// Reconnect policy: redialAttempts extra dial attempts with
	// exponential backoff starting at redialBackoff (see SetRedial).
	redialAttempts int
	redialBackoff  time.Duration

	// rttObs, when set, receives the wall time of every round trip —
	// failures and timeouts included, since they are the latency tail.
	rttObs func(time.Duration)

	// The adds AddLater queued, already encoded and oldest first, wait in
	// later for the next command on this connection; laterAt marks where
	// each ends and when it was queued. laterMu alone guards them (and is
	// taken after mu, never before), so queuing never waits for a round
	// trip in flight. carry is the spare buffer attempt swaps in to write
	// the queued bytes outside laterMu.
	laterMu sync.Mutex
	later   []byte
	laterAt []laterAdd
	carry   []byte
	// now is the age bound's clock and wb counts what became of each
	// queued add (never nil). They are read under either mutex and set,
	// by SetClock and SetWriteBackCounters, under both.
	now func() time.Time
	wb  *WriteBacks

	// transactions counts protocol round-trips issued — the quantity
	// RnB minimizes. Atomic, so a scrape never waits behind mu, which
	// exchange holds across a whole socket round trip.
	transactions atomic.Uint64
}

// Dial connects a text-protocol client to the server at addr. timeout
// <= 0 means no I/O deadline.
func Dial(addr string, timeout time.Duration) (*Client, error) {
	return dial(addr, timeout, textCodec{})
}

// DialBinary is Dial speaking the memcached binary protocol: a
// multi-get is N quiet gets plus a Noop in one write — one transaction
// on the wire, like the libmemcached behavior the paper's
// micro-benchmarks rely on.
func DialBinary(addr string, timeout time.Duration) (*Client, error) {
	return dial(addr, timeout, binCodec{})
}

func dial(addr string, timeout time.Duration, wire codec) (*Client, error) {
	c := &Client{addr: addr, timeout: timeout, now: time.Now, wb: new(WriteBacks)}
	c.commands.via, c.commands.codec = c, wire
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
}

// SetRedial configures reconnect-with-backoff: when (re)establishing
// the connection fails, up to attempts additional dials are made with
// exponential backoff starting at backoff (default 10ms when <= 0).
// The default of 0 attempts keeps failures fast, which is what a
// circuit-breaking caller wants; daemons that prefer riding out brief
// listener restarts can opt in.
func (c *Client) SetRedial(attempts int, backoff time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.redialAttempts = attempts
	c.redialBackoff = backoff
}

// SetRTTObserver installs a per-round-trip latency observer (nil
// disables). Every round trip is stamped, replays and failed trips
// included: errors and timeouts are exactly the latency tail an
// operator wants visible.
func (c *Client) SetRTTObserver(obs func(time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rttObs = obs
}

func (c *Client) connect() error {
	backoff := c.redialBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		conn, err := net.Dial("tcp", c.addr)
		if err == nil {
			c.conn = conn
			c.r = bufio.NewReaderSize(conn, 64<<10)
			c.w = bufio.NewWriterSize(conn, 64<<10)
			return nil
		}
		if attempt >= c.redialAttempts {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// Close tears down the connection; adds still queued by AddLater are
// dropped.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dropLater()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Addr returns the server address.
func (c *Client) Addr() string { return c.addr }

// Transactions returns the number of round-trips issued so far. An add
// carried in front of one (AddLater) rides that round trip and is not
// counted as another; the server still counts it as the transaction it
// executes.
func (c *Client) Transactions() uint64 { return c.transactions.Load() }

// armDeadline (re)arms the per-round-trip I/O deadline. It runs at the
// start of EVERY round trip — arming when a timeout is configured,
// clearing otherwise — so a connection can never carry a stale deadline
// from an earlier operation into a later one. That is also why nothing
// clears it afterwards: a deadline that lapses while the connection
// sits idle is replaced before the next byte moves.
func (c *Client) armDeadline() {
	if c.conn == nil {
		return
	}
	if c.timeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.timeout))
	} else {
		c.conn.SetDeadline(time.Time{})
	}
}

// exchange runs one request as a locked round trip. The queue wait of a
// traced request is the time it spent blocked on the connection mutex.
func (c *Client) exchange(q request) (reply, error) {
	var lockStart time.Time
	if q.tc.Valid() {
		lockStart = time.Now()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.req, c.rep = q, reply{}
	if q.tc.Valid() {
		c.rep.queueNS = time.Since(lockStart).Nanoseconds()
	}
	err := c.roundTrip()
	rep := c.rep
	c.req, c.rep = request{}, reply{} // do not pin the caller's keys, value and items until the next call
	return rep, err
}

// roundTrip exchanges c.req with one transparent retry: if an
// idempotent command fails on a *reused* connection (stale after a
// server restart or an idle reset), the client reconnects and replays
// it once. Mutations are never replayed — that could apply them twice.
// Called with the mutex held.
func (c *Client) roundTrip() error {
	fresh := false
	if c.conn == nil {
		if err := c.connect(); err != nil {
			return err
		}
		fresh = true
	}
	err := c.attempt()
	if !IsConnFatal(err) || !c.req.cmd.idempotent() || fresh {
		return err
	}
	// The connection went stale between round trips; a fresh connection
	// gets one replay.
	if cerr := c.connect(); cerr != nil {
		return err
	}
	return c.attempt()
}

// attempt is one write → flush → read on the current connection,
// counted as a transaction.
func (c *Client) attempt() error {
	c.armDeadline()
	c.transactions.Add(1)
	start := time.Now()
	carried, err := c.writeLater()
	c.req.carried = carried
	if err == nil {
		err = c.codec.encode(c.w, &c.req)
	}
	if err == nil {
		err = c.w.Flush()
	}
	if carried > 0 {
		if err == nil {
			c.wb.Carried.Add(uint64(carried))
		} else {
			c.wb.DroppedConn.Add(uint64(carried))
		}
	}
	if err == nil {
		err = c.codec.decode(c.r, &c.req, &c.rep)
	}
	if c.rttObs != nil {
		c.rttObs(time.Since(start))
	}
	if IsConnFatal(err) {
		// Connection state is unknown after an I/O error; drop it, and
		// with it whatever was queued while this attempt ran.
		c.conn.Close()
		c.conn = nil
		c.dropLater()
		return err
	}
	// Success, or a protocol-level outcome (miss, CAS conflict, declined
	// store, status-line error): the reply was consumed in full and the
	// connection stays in sync.
	return err
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

// AddLater queues an add of it that needs no answer and returns at
// once: no syscall, no server wake-up, no wait for a round trip in
// flight. The command is checked as Add checks it and encoded
// immediately (the value is copied, so it may alias a reply's arena),
// and its bytes leave in front of the next command this connection
// sends, in the same write: "add ... noreply" on the text wire, AddQ on
// the binary one. Connection order therefore keeps it ahead of any Set,
// Delete or other mutation issued on this Client after AddLater
// returned, and being an add it fills an empty slot or does nothing.
//
// It is best effort. The add is dropped, never retried, when the queued
// bytes would pass writeBackMaxBytes (ErrNotStored), when no command
// follows within writeBackMaxAge, or when the connection breaks or is
// closed first; the write-back counters say which.
func (c *Client) AddLater(it *Item) error {
	if !validKey(it.Key) {
		return ErrBadKey
	}
	if len(it.Value) > MaxValueLen {
		return ErrTooLarge
	}
	c.laterMu.Lock()
	defer c.laterMu.Unlock()
	now := c.now()
	c.expireLater(now)
	if len(c.later)+len(it.Key)+len(it.Value)+quietAddOverhead > writeBackMaxBytes {
		c.wb.DroppedFull.Add(1)
		return ErrNotStored
	}
	c.later = c.codec.appendQuietAdd(c.later, it)
	c.laterAt = append(c.laterAt, laterAdd{end: len(c.later), at: now})
	c.wb.Queued.Add(1)
	return nil
}

// expireLater drops the queued adds older than writeBackMaxAge. Called
// with laterMu held.
func (c *Client) expireLater(now time.Time) {
	n := 0
	for n < len(c.laterAt) && now.Sub(c.laterAt[n].at) > writeBackMaxAge {
		n++
	}
	if n == 0 {
		return
	}
	cut := c.laterAt[n-1].end
	c.later = append(c.later[:0], c.later[cut:]...)
	kept := copy(c.laterAt, c.laterAt[n:])
	c.laterAt = c.laterAt[:kept]
	for i := range c.laterAt {
		c.laterAt[i].end -= cut
	}
	c.wb.DroppedAge.Add(uint64(n))
}

// writeLater moves the queued adds still young enough into the write
// buffer, ahead of the command attempt is about to encode, and reports
// how many. Called with mu held.
func (c *Client) writeLater() (int, error) {
	c.laterMu.Lock()
	if len(c.laterAt) == 0 {
		c.laterMu.Unlock()
		return 0, nil
	}
	c.expireLater(c.now())
	n := len(c.laterAt)
	c.later, c.carry = c.carry[:0], c.later
	c.laterAt = c.laterAt[:0]
	c.laterMu.Unlock()
	_, err := c.w.Write(c.carry)
	return n, err
}

// dropLater discards every queued add: its connection is gone.
func (c *Client) dropLater() {
	c.laterMu.Lock()
	defer c.laterMu.Unlock()
	c.wb.DroppedConn.Add(uint64(len(c.laterAt)))
	c.later, c.laterAt = c.later[:0], c.laterAt[:0]
}

// SetClock replaces the clock the age bound reads (tests).
func (c *Client) SetClock(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.laterMu.Lock()
	defer c.laterMu.Unlock()
	c.now = now
}

// SetWriteBackCounters makes the client count its deferred adds into
// wb, which several clients (one per server) may share for a tier-wide
// view, instead of counters of its own.
func (c *Client) SetWriteBackCounters(wb *WriteBacks) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.laterMu.Lock()
	defer c.laterMu.Unlock()
	c.wb = wb
}
