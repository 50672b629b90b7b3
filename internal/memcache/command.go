package memcache

import (
	"bufio"
	"sync/atomic"

	"rnb/internal/obs"
)

// The client side is three orthogonal pieces:
//
//   - one command set (this file): every Conn command — validation,
//     request descriptor, result extraction — is written once;
//   - two codecs (codec.go, bincodec.go): the only code that knows wire
//     bytes, each turning a request into frames and frames into a reply;
//   - two exchangers (client.go, pool.go): each knows only how to move
//     one request to the server and its reply back, and what to do when
//     the connection dies in between.
//
// Client and Pool embed commands, so both get every Conn method with no
// per-transport or per-wire-format copy.

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

	// The rest are requests only a server sees; no Conn method issues
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

// request describes one command invocation. It crosses the exchanger
// seam by value and the exchanger copies it into storage it already
// owns (Client.req, one of a pooled connection's poolRequest slots), so
// describing a command never costs a heap allocation of its own — the
// point-get path has none to spare.
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
// responses arrive in request order, so an exchanger may run the halves
// back to back (Client) or let one caller decode what another encoded
// (Pool).
type codec interface {
	// check rejects, before submission, a request the format cannot
	// express.
	check(q request) error
	encode(w *bufio.Writer, q *request) error
	decode(r *bufio.Reader, q *request, p *reply) error
	// appendQuietAdd appends to b an add of it that the server does not
	// answer when it stores or merely refuses it (see Client.AddLater).
	appendQuietAdd(b []byte, it *Item) []byte
}

// exchanger moves one request to the server and its reply back.
type exchanger interface {
	exchange(q request) (reply, error)
}

// commands is the one implementation of every Conn command, shared by
// both exchangers and both codecs.
type commands struct {
	via   exchanger
	codec codec

	// tracing enables wire-level trace propagation; traceOK caches the
	// handshake outcome (0 unknown, 1 negotiated, 2 plain server) — one
	// address speaks one banner, so the answer holds for every
	// connection. With tracing off the wire carries zero extra bytes.
	tracing atomic.Bool
	traceOK atomic.Int32
}

func (cs *commands) do(q request) (reply, error) {
	if err := cs.codec.check(q); err != nil {
		return reply{}, err
	}
	return cs.via.exchange(q)
}

// Get fetches a single key.
func (cs *commands) Get(key string) (*Item, error) {
	if !validKey(key) {
		return nil, ErrBadKey
	}
	rep, err := cs.do(request{cmd: cmdGet, key: key})
	if err != nil {
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
func (cs *commands) GetMulti(keys []string) (map[string]*Item, error) {
	items, _, err := cs.getMultiMap(cmdGet, obs.TraceContext{}, keys)
	return items, err
}

// GetsMulti is GetMulti with CAS tokens populated.
func (cs *commands) GetsMulti(keys []string) (map[string]*Item, error) {
	items, _, err := cs.getMultiMap(cmdGets, obs.TraceContext{}, keys)
	return items, err
}

// TracedGetMulti is GetMulti carrying a distributed-trace context. It
// returns the items, the client-side queue wait in nanoseconds, and the
// server's phase timings — nil when the server did not negotiate
// tracing, in which case the request degraded to a stock multi-get.
func (cs *commands) TracedGetMulti(tc obs.TraceContext, keys []string) (map[string]*Item, int64, *obs.ServerTimings, error) {
	items, rep, err := cs.getMultiMap(cmdGet, tc, keys)
	return items, rep.queueNS, rep.st, err
}

// TracedGetItems is TracedGetMulti without the map: the found items as
// the reply was decoded, in the order the server sent them (request
// order on a well-behaved server, which may still repeat or add keys).
// The items share one backing array and one value arena, so a caller
// that merges &items[i] into its own result builds nothing per
// transaction.
func (cs *commands) TracedGetItems(tc obs.TraceContext, keys []string) ([]Item, int64, *obs.ServerTimings, error) {
	rep, err := cs.getMulti(cmdGet, tc, keys)
	return rep.items, rep.queueNS, rep.st, err
}

// getMulti runs one get or gets transaction; rep.items holds the hits,
// and is nil on error.
func (cs *commands) getMulti(cmd command, tc obs.TraceContext, keys []string) (reply, error) {
	if len(keys) == 0 {
		return reply{}, nil
	}
	for _, k := range keys {
		if !validKey(k) {
			return reply{}, ErrBadKey
		}
	}
	q := request{cmd: cmd, keys: keys, tc: tc}
	q.traced = tc.Valid() && cs.tracingNegotiated()
	rep, err := cs.do(q)
	if err != nil {
		rep.items = nil
	}
	return rep, err
}

// getMultiMap is getMulti for the map-returning commands: the reply's
// items indexed by key. The last of a repeated key wins, as when each
// hit was merged into the map as it was decoded.
func (cs *commands) getMultiMap(cmd command, tc obs.TraceContext, keys []string) (map[string]*Item, reply, error) {
	rep, err := cs.getMulti(cmd, tc, keys)
	if err != nil {
		return nil, rep, err
	}
	m := make(map[string]*Item, len(rep.items))
	for i := range rep.items {
		m[rep.items[i].Key] = &rep.items[i]
	}
	return m, rep, nil
}

// SetTracing enables (or disables) wire-level trace propagation. The
// first traced request probes the server's version banner, and only a
// server announcing rnb-memcache support ever sees a trace frame; plain
// memcached keeps receiving stock protocol bytes.
func (cs *commands) SetTracing(on bool) {
	cs.tracing.Store(on)
	if on {
		cs.traceOK.Store(0)
	}
}

// tracingNegotiated resolves the tracing handshake, with one version
// round trip while the outcome is unknown. A failed probe leaves it
// unknown so a later traced request retries; concurrent probes are
// harmless (version is idempotent).
func (cs *commands) tracingNegotiated() bool {
	if !cs.tracing.Load() {
		return false
	}
	if cs.traceOK.Load() == 0 {
		banner, err := cs.Version()
		if err != nil {
			return false
		}
		if bannerSupportsTracing(banner) {
			cs.traceOK.Store(1)
		} else {
			cs.traceOK.Store(2)
		}
	}
	return cs.traceOK.Load() == 1
}

// Set stores an item unconditionally.
func (cs *commands) Set(it *Item) error { return cs.store(cmdSet, it) }

// SetPinned stores an item exempt from LRU eviction, via this server's
// RnB "setp" protocol extension. Distinguished copies are stored this
// way so they can never miss (paper §III-C-1). Not supported by stock
// memcached.
func (cs *commands) SetPinned(it *Item) error { return cs.store(cmdSetPinned, it) }

// Add stores an item only if absent.
func (cs *commands) Add(it *Item) error { return cs.store(cmdAdd, it) }

// Replace stores an item only if present.
func (cs *commands) Replace(it *Item) error { return cs.store(cmdReplace, it) }

// CompareAndSwap stores an item only if its CAS token still matches.
func (cs *commands) CompareAndSwap(it *Item) error { return cs.store(cmdCAS, it) }

// Append concatenates data after an existing value.
func (cs *commands) Append(key string, data []byte) error {
	return cs.store(cmdAppend, &Item{Key: key, Value: data})
}

// Prepend concatenates data before an existing value.
func (cs *commands) Prepend(key string, data []byte) error {
	return cs.store(cmdPrepend, &Item{Key: key, Value: data})
}

func (cs *commands) store(cmd command, it *Item) error {
	if !validKey(it.Key) {
		return ErrBadKey
	}
	if len(it.Value) > MaxValueLen {
		return ErrTooLarge
	}
	_, err := cs.do(request{cmd: cmd, item: it})
	return err
}

// Incr adds delta to a decimal value, returning the new value.
func (cs *commands) Incr(key string, delta uint64) (uint64, error) {
	rep, err := cs.keyed(request{cmd: cmdIncr, key: key, delta: delta})
	return rep.value, err
}

// Decr subtracts delta from a decimal value (clamped at zero),
// returning the new value.
func (cs *commands) Decr(key string, delta uint64) (uint64, error) {
	rep, err := cs.keyed(request{cmd: cmdDecr, key: key, delta: delta})
	return rep.value, err
}

// Delete removes a key.
func (cs *commands) Delete(key string) error {
	_, err := cs.keyed(request{cmd: cmdDelete, key: key})
	return err
}

// Touch updates a key's expiration time.
func (cs *commands) Touch(key string, exp int32) error {
	_, err := cs.keyed(request{cmd: cmdTouch, key: key, exp: exp})
	return err
}

// keyed runs a single-key command.
func (cs *commands) keyed(q request) (reply, error) {
	if !validKey(q.key) {
		return reply{}, ErrBadKey
	}
	return cs.do(q)
}

// FlushAll wipes the server.
func (cs *commands) FlushAll() error {
	_, err := cs.do(request{cmd: cmdFlushAll})
	return err
}

// Version returns the server version banner.
func (cs *commands) Version() (string, error) {
	rep, err := cs.do(request{cmd: cmdVersion})
	return rep.banner, err
}

// Stats fetches the server's stats map.
func (cs *commands) Stats() (map[string]string, error) {
	q := request{cmd: cmdStats, stats: map[string]string{}}
	if _, err := cs.do(q); err != nil {
		return nil, err
	}
	return q.stats, nil
}
