package memcache

import (
	"bufio"

	"rnb/internal/obs"
)

// The client side is three orthogonal pieces:
//
//   - one command set (this file): every command — validation, request
//     descriptor, result extraction — is written once, as a method of
//     Client;
//   - two codecs (codec.go, bincodec.go): the only code that knows wire
//     bytes, each turning a request into frames and frames into a reply;
//   - one exchanger (pool.go): Client.exchange, a send and a collect,
//     knows only how to move one request to the server and its reply
//     back, and what to do when the connection dies in between.
//
// So every command exists once, whatever the wire format or the number
// of connections.

// command names one memcached operation, independent of wire format.
type command uint8

const (
	cmdGet command = iota
	cmdGets
	cmdSet
	cmdSetPinned
	cmdAdd
	cmdReplace
	cmdCAS
	cmdAppend
	cmdPrepend
	cmdIncr
	cmdDecr
	cmdDelete
	cmdTouch
	cmdFlushAll
	cmdVersion
	cmdStats

	// The rest are requests only a server sees; no Client method issues
	// them as a command of its own.
	cmdNoop    // the binary ping (the Noop that ends a quiet-get run is part of that get)
	cmdQuit    // close the connection
	cmdTrace   // the trace prefix line or frame: arms the next command
	cmdUnknown // a verb or opcode this server does not speak
)

// commandNames is the one name table: the text codec's verbs on both
// sides of the wire, and the label a traced command's ServerSpan
// carries whichever wire it arrived on.
var commandNames = [...]string{
	cmdGet: "get", cmdGets: "gets",
	cmdSet: "set", cmdSetPinned: "setp", cmdAdd: "add", cmdReplace: "replace", cmdCAS: "cas",
	cmdAppend: "append", cmdPrepend: "prepend",
	cmdIncr: "incr", cmdDecr: "decr", cmdDelete: "delete", cmdTouch: "touch",
	cmdFlushAll: "flush_all", cmdVersion: "version", cmdStats: "stats",
	cmdNoop: "noop", cmdQuit: "quit", cmdTrace: "trace", cmdUnknown: "unknown",
}

// stores reports whether the command carries a value to store — the
// verbs ServerStats.CmdSet counts.
func (c command) stores() bool { return c >= cmdSet && c <= cmdPrepend }

// idempotent reports whether replaying the command cannot change server
// state. Only these are replayed after their connection died with the
// request already written; replaying a mutation could apply it twice.
func (c command) idempotent() bool {
	return c == cmdGet || c == cmdGets || c == cmdVersion || c == cmdStats
}

// request describes one command invocation. It lives in the issuing
// command's frame and reaches the exchanger by pointer; the exchanger
// copies it into storage it already owns (one of a connection's
// poolRequest slots), so describing a command never costs a heap
// allocation of its own — the point-get path has none to spare.
type request struct {
	cmd   command
	key   string   // single-key commands, Get included
	keys  []string // multi-gets; nil for a single-key Get
	item  *Item    // storage commands
	delta uint64   // incr, decr
	exp   int32    // touch

	// tc is the caller's trace context: when valid the exchanger
	// measures the request's queue wait. traced is set only once the
	// server has negotiated tracing, and makes the codec frame tc.
	tc     obs.TraceContext
	traced bool

	// carried is how many quiet adds the exchanger wrote in front of this
	// request (Client.AddLater). The binary decode may meet that many of
	// their error frames before the reply it is waiting for.
	carried int

	stats map[string]string // stats: entries are merged in
}

// keyList returns the keys the command names as a slice. A single-key
// command carries its key inline so that no one-element slice escapes
// to the heap on the point-get path; one is the caller's stack scratch
// for that case.
func (q *request) keyList(one *[1]string) []string {
	if q.keys != nil {
		return q.keys
	}
	one[0] = q.key
	return one[:]
}

// reply holds what a command returns beyond its stats map and its
// error.
type reply struct {
	items   []Item             // get, gets: the hits in reply order, one slab (see replySlab)
	value   uint64             // incr, decr: the new counter value
	banner  string             // version
	queueNS int64              // traced get: submission-to-wire wait
	st      *obs.ServerTimings // traced get: server phase attribution
}

// codec is one wire format. encode and decode are the write and read
// halves of a transaction: the request is fully described by the pair,
// responses arrive in request order, so one caller may decode what
// another encoded (see pconn).
type codec interface {
	// check rejects, before submission, a command the format cannot
	// express.
	check(cmd command, it *Item) error
	encode(w *bufio.Writer, q *request) error
	decode(r *bufio.Reader, q *request, p *reply) error
	// appendQuietAdd appends to b an add of it that the server does not
	// answer when it stores or merely refuses it (see Client.AddLater).
	appendQuietAdd(b []byte, it *Item) []byte
}

// do runs q and leaves its reply in rep. Both stay in the issuing
// command's frame: through an interface either would escape to the
// heap.
func (p *Client) do(q *request, rep *reply) error {
	if err := p.codec.check(q.cmd, q.item); err != nil {
		return err
	}
	return p.exchange(q, rep)
}

// Get fetches a single key.
func (p *Client) Get(key string) (*Item, error) {
	if !validKey(key) {
		return nil, ErrBadKey
	}
	var rep reply
	if err := p.do(&request{cmd: cmdGet, key: key}, &rep); err != nil {
		return nil, err
	}
	for i := range rep.items {
		if rep.items[i].Key == key {
			return &rep.items[i], nil
		}
	}
	return nil, ErrCacheMiss
}

// GetMulti fetches any number of keys in ONE transaction (a memcached
// multi-get) and returns the found items. Missing keys are simply
// absent from the result.
func (p *Client) GetMulti(keys []string) (map[string]*Item, error) {
	var rep reply
	return p.getMultiMap(cmdGet, obs.TraceContext{}, keys, &rep)
}

// GetsMulti is GetMulti with CAS tokens populated.
func (p *Client) GetsMulti(keys []string) (map[string]*Item, error) {
	var rep reply
	return p.getMultiMap(cmdGets, obs.TraceContext{}, keys, &rep)
}

// TracedGetMulti is GetMulti carrying a distributed-trace context. It
// returns the items, the client-side queue wait in nanoseconds, and the
// server's phase timings — nil when the server did not negotiate
// tracing, in which case the request degraded to a stock multi-get.
func (p *Client) TracedGetMulti(tc obs.TraceContext, keys []string) (map[string]*Item, int64, *obs.ServerTimings, error) {
	var rep reply
	items, err := p.getMultiMap(cmdGet, tc, keys, &rep)
	return items, rep.queueNS, rep.st, err
}

// SendGet writes a multi-get of keys (carrying tc) into h and returns
// without waiting for the reply, which h.Collect returns. One goroutine
// may send to many servers before it collects any reply: a reply is read
// by whichever caller collects on its connection first, so no order of
// collects can deadlock (see pconn).
func (p *Client) SendGet(tc obs.TraceContext, keys []string, h *Pending) {
	*h = Pending{}
	if len(keys) > 0 {
		var q request
		if q, h.err = p.getRequest(cmdGet, tc, keys); h.err == nil {
			p.send(&q, h, false)
		}
	}
}

// Collect waits for the reply to the multi-get SendGet wrote into h. It
// returns the found items as the reply was decoded, in the order the
// server sent them (request order on a well-behaved server, which may
// still repeat or add keys), the client-side queue wait in nanoseconds,
// and the server's phase timings — nil when the server did not negotiate
// tracing. The items share one backing array and one value arena, so a
// caller that merges &items[i] into its own result builds nothing per
// transaction.
func (h *Pending) Collect() ([]Item, int64, *obs.ServerTimings, error) {
	if h.p == nil { // refused before the wire, or no keys
		return nil, 0, nil, h.err
	}
	var rep reply
	if err := h.collect(&rep); err != nil {
		return nil, rep.queueNS, rep.st, err
	}
	return rep.items, rep.queueNS, rep.st, nil
}

// getRequest checks keys and describes a get or gets of them.
func (p *Client) getRequest(cmd command, tc obs.TraceContext, keys []string) (request, error) {
	for _, k := range keys {
		if !validKey(k) {
			return request{}, ErrBadKey
		}
	}
	return request{cmd: cmd, keys: keys, tc: tc, traced: tc.Valid() && p.tracingNegotiated()}, nil
}

// getMultiMap runs one get or gets transaction into rep and returns the
// reply's items indexed by key. The last of a repeated key wins, as when
// each hit was merged into the map as it was decoded.
func (p *Client) getMultiMap(cmd command, tc obs.TraceContext, keys []string, rep *reply) (map[string]*Item, error) {
	if len(keys) > 0 {
		q, err := p.getRequest(cmd, tc, keys)
		if err == nil {
			err = p.do(&q, rep)
		}
		if err != nil {
			return nil, err
		}
	}
	return itemMap(rep.items), nil
}

// itemMap indexes a reply's items by key.
func itemMap(items []Item) map[string]*Item {
	m := make(map[string]*Item, len(items))
	for i := range items {
		m[items[i].Key] = &items[i]
	}
	return m
}

// SetTracing enables (or disables) wire-level trace propagation. The
// first traced request probes the server's version banner, and only a
// server announcing rnb-memcache support ever sees a trace frame; plain
// memcached keeps receiving stock protocol bytes.
func (p *Client) SetTracing(on bool) {
	p.tracing.Store(on)
	if on {
		p.traceOK.Store(0)
	}
}

// tracingNegotiated resolves the tracing handshake, with one version
// round trip while the outcome is unknown. A failed probe leaves it
// unknown so a later traced request retries; concurrent probes are
// harmless (version is idempotent).
func (p *Client) tracingNegotiated() bool {
	if !p.tracing.Load() {
		return false
	}
	if p.traceOK.Load() == 0 {
		banner, err := p.Version()
		if err != nil {
			return false
		}
		if bannerSupportsTracing(banner) {
			p.traceOK.Store(1)
		} else {
			p.traceOK.Store(2)
		}
	}
	return p.traceOK.Load() == 1
}

// Set stores an item unconditionally.
func (p *Client) Set(it *Item) error { return p.store(cmdSet, it) }

// SetPinned stores an item exempt from LRU eviction, via this server's
// RnB "setp" protocol extension. Distinguished copies are stored this
// way so they can never miss (paper §III-C-1). Not supported by stock
// memcached.
func (p *Client) SetPinned(it *Item) error { return p.store(cmdSetPinned, it) }

// Add stores an item only if absent.
func (p *Client) Add(it *Item) error { return p.store(cmdAdd, it) }

// Replace stores an item only if present.
func (p *Client) Replace(it *Item) error { return p.store(cmdReplace, it) }

// CompareAndSwap stores an item only if its CAS token still matches.
func (p *Client) CompareAndSwap(it *Item) error { return p.store(cmdCAS, it) }

// Append concatenates data after an existing value.
func (p *Client) Append(key string, data []byte) error {
	return p.store(cmdAppend, &Item{Key: key, Value: data})
}

// Prepend concatenates data before an existing value.
func (p *Client) Prepend(key string, data []byte) error {
	return p.store(cmdPrepend, &Item{Key: key, Value: data})
}

func (p *Client) store(cmd command, it *Item) error {
	if err := checkItem(it); err != nil {
		return err
	}
	var rep reply
	return p.do(&request{cmd: cmd, item: it}, &rep)
}

// checkItem rejects, before any wire contact, an item no server would
// store.
func checkItem(it *Item) error {
	if !validKey(it.Key) {
		return ErrBadKey
	}
	if len(it.Value) > MaxValueLen {
		return ErrTooLarge
	}
	return nil
}

// Incr adds delta to a decimal value, returning the new value.
func (p *Client) Incr(key string, delta uint64) (uint64, error) {
	var rep reply
	err := p.keyed(&request{cmd: cmdIncr, key: key, delta: delta}, &rep)
	return rep.value, err
}

// Decr subtracts delta from a decimal value (clamped at zero),
// returning the new value.
func (p *Client) Decr(key string, delta uint64) (uint64, error) {
	var rep reply
	err := p.keyed(&request{cmd: cmdDecr, key: key, delta: delta}, &rep)
	return rep.value, err
}

// Delete removes a key.
func (p *Client) Delete(key string) error {
	var rep reply
	return p.keyed(&request{cmd: cmdDelete, key: key}, &rep)
}

// Touch updates a key's expiration time.
func (p *Client) Touch(key string, exp int32) error {
	var rep reply
	return p.keyed(&request{cmd: cmdTouch, key: key, exp: exp}, &rep)
}

// keyed runs a single-key command.
func (p *Client) keyed(q *request, rep *reply) error {
	if !validKey(q.key) {
		return ErrBadKey
	}
	return p.do(q, rep)
}

// FlushAll wipes the server.
func (p *Client) FlushAll() error {
	var rep reply
	return p.do(&request{cmd: cmdFlushAll}, &rep)
}

// Version returns the server version banner.
func (p *Client) Version() (string, error) {
	var rep reply
	err := p.do(&request{cmd: cmdVersion}, &rep)
	return rep.banner, err
}

// Stats fetches the server's stats map.
func (p *Client) Stats() (map[string]string, error) {
	var rep reply
	q := request{cmd: cmdStats, stats: map[string]string{}}
	if err := p.do(&q, &rep); err != nil {
		return nil, err
	}
	return q.stats, nil
}
