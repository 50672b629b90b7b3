package memcache

import "rnb/internal/obs"

// Conn is the per-server transport handle: everything the RnB client
// (and the proxy behind it) needs from a memcached connection. The
// commands are implemented once (command.go) over a codec — text or
// binary — and one exchanger, Client: one connection (Dial, DialBinary)
// or up to Size pipelined ones (NewPool). Callers choose codec and size
// at construction and treat the handle uniformly afterwards; in
// particular, error semantics do not depend on either — a network-level
// failure surfaces as an error on the operation that hit it (feeding
// the caller's circuit breaker), and only idempotent reads are ever
// replayed transparently.
type Conn interface {
	// Addr returns the server address the handle is bound to.
	Addr() string
	// Close tears down every underlying connection. Safe to call twice.
	Close() error
	// Transactions returns the number of protocol round trips issued. An
	// add that AddLater queued and a later command carried is not one.
	Transactions() uint64

	Get(key string) (*Item, error)
	GetMulti(keys []string) (map[string]*Item, error)
	GetsMulti(keys []string) (map[string]*Item, error)
	Set(it *Item) error
	SetPinned(it *Item) error
	Add(it *Item) error
	// AddLater is Add for a caller that does not need the answer — round
	// 2's write-back of a value it has already served. It validates it as
	// Add does and returns without a round trip where the exchanger can
	// keep the add ordered ahead of every later command this handle sends
	// the server: a one-connection Client queues it and writes it,
	// unanswered, in front of its next command; a Client of more
	// connections cannot promise that order and sends an acknowledged
	// Add. Like any add it never replaces a stored value. Best effort: a
	// queued add may be dropped (see Client.AddLater), and ErrNotStored
	// says it was refused or not queued.
	AddLater(it *Item) error
	Replace(it *Item) error
	CompareAndSwap(it *Item) error
	Append(key string, data []byte) error
	Prepend(key string, data []byte) error
	Incr(key string, delta uint64) (uint64, error)
	Decr(key string, delta uint64) (uint64, error)
	Delete(key string) error
	Touch(key string, exp int32) error
	FlushAll() error
	Version() (string, error)
	Stats() (map[string]string, error)

	// SetTracing enables wire-level distributed-trace propagation. The
	// transport negotiates support via the server's version banner; a
	// plain memcached server keeps seeing stock protocol bytes, and with
	// tracing off the wire is byte-identical to an untraced build.
	SetTracing(on bool)
	// TracedGetMulti is GetMulti carrying a trace context. It returns
	// the items, the client-side queue wait in nanoseconds (time spent
	// between submission and the request's bytes reaching the wire), and
	// the server's phase attribution — nil when tracing did not
	// negotiate, in which case the call degraded to a stock GetMulti.
	TracedGetMulti(tc obs.TraceContext, keys []string) (map[string]*Item, int64, *obs.ServerTimings, error)
	// TracedGetItems is TracedGetMulti for a caller that assembles its
	// own result: the found items in reply order, without a map built
	// around them. They share one backing array and one value arena
	// (see Item).
	TracedGetItems(tc obs.TraceContext, keys []string) ([]Item, int64, *obs.ServerTimings, error)
}

var _ Conn = (*Client)(nil)
