// Package rnb is the public face of this repository: a Replicate and
// Bundle (RnB) client for memcached-style storage tiers, after
// "Replicate and Bundle (RnB) – A Mechanism for Relieving Bottlenecks
// in Data Centers" (Raindel & Birk, IPDPS 2013).
//
// RnB attacks the multi-get hole: when a user request needs many small
// items and the server cost is dominated by per-transaction work,
// spreading data over more servers only multiplies transactions.
// Instead, RnB stores every item on several pseudo-randomly chosen
// servers (ranged consistent hashing) and, per request, picks a small
// set of servers that jointly hold all requested items (greedy minimum
// set cover), bundling the items into one multi-get per chosen server.
//
// The Client in this package speaks the real memcached text protocol
// (see internal/memcache for the bundled server implementation); the
// simulation used to reproduce the paper's figures lives in
// internal/sim and is driven by cmd/rnbsim.
//
// Basic use:
//
//	client, err := rnb.NewClient([]string{"10.0.0.1:11211", "10.0.0.2:11211"},
//	    rnb.WithReplicas(3))
//	...
//	items, stats, err := client.GetMulti(keys)
//
// GetMulti fetches all keys in stats.Transactions round trips — with 3
// replicas typically far fewer than len(distinct servers of keys).
package rnb

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rnb/internal/core"
	"rnb/internal/hotspot"
	"rnb/internal/memcache"
	"rnb/internal/obs"
	"rnb/internal/topology"
	"rnb/internal/xhash"
)

// ObsConfig re-exports the observability configuration for
// WithObservability callers.
type ObsConfig = obs.Config

// AdaptiveConfig re-exports the hotspot controller configuration for
// WithAdaptiveReplication callers.
type AdaptiveConfig = hotspot.Config

// TraceConfig re-exports the distributed-tracing configuration for
// WithTracing callers.
type TraceConfig = obs.TraceConfig

// Item is a stored object (re-exported from the protocol package). The
// items one transaction returned share an array and a value arena:
// retaining one retains the others (see memcache.Item).
type Item = memcache.Item

// ErrCacheMiss is returned by Get when a key is nowhere to be found.
var ErrCacheMiss = memcache.ErrCacheMiss

// Option configures a Client.
type Option func(*clientConfig)

// Loader fetches values for keys that missed everywhere (the
// authoritative database behind the cache tier). Returned maps may omit
// keys that do not exist at all.
type Loader func(keys []string) (map[string][]byte, error)

type clientConfig struct {
	replicas         int
	timeout          time.Duration
	hitchhike        bool
	pinDistinguished bool
	loader           Loader
	cooldown         time.Duration
	breakerThreshold int
	retryAttempts    int
	retryBackoff     time.Duration
	adaptive         *hotspot.Config
	poolSize         int
	binary           bool
	obs              obs.Config
	trace            *obs.TraceConfig
	transitionWindow time.Duration
	drainTimeout     time.Duration
}

// WithReplicas sets the logical replication level (default 2).
func WithReplicas(n int) Option {
	return func(c *clientConfig) { c.replicas = n }
}

// WithTimeout sets the per-operation network timeout (default 5s).
func WithTimeout(d time.Duration) Option {
	return func(c *clientConfig) { c.timeout = d }
}

// WithHitchhiking piggybacks redundant item requests onto planned
// transactions to raise hit rates under memory pressure (default on).
func WithHitchhiking(on bool) Option {
	return func(c *clientConfig) { c.hitchhike = on }
}

// WithPinnedDistinguished controls whether the distinguished copy of
// each item is stored with the server's "setp" pinning extension so it
// is exempt from LRU eviction and can never miss (default on). Turn it
// off when talking to stock memcached servers, at the cost of losing
// the never-miss guarantee for distinguished copies.
func WithPinnedDistinguished(on bool) Option {
	return func(c *clientConfig) { c.pinDistinguished = on }
}

// WithFailureCooldown sets the circuit-breaker cooldown: how long a
// tripped (open) server stays fully quarantined before it becomes
// half-open and a single probe request decides whether to re-admit it
// (default 2s; <= 0 disables breakers entirely). While open or
// half-open, reads plan around the server — surviving replicas and
// acting distinguished copies serve in its stead (§III-C's replica
// flexibility doubling as failover).
func WithFailureCooldown(d time.Duration) Option {
	return func(c *clientConfig) { c.cooldown = d }
}

// WithBreakerThreshold sets how many consecutive failures trip a
// server's circuit breaker from closed to open (default 1: the first
// network error quarantines, matching the original cooldown
// behaviour). Higher thresholds tolerate isolated blips at the cost of
// extra failed transactions before the tier routes around a dead
// server.
func WithBreakerThreshold(n int) Option {
	return func(c *clientConfig) { c.breakerThreshold = n }
}

// WithRetry bounds the read path's mid-request recovery: after a
// round-1 transaction fails, up to attempts re-plan rounds re-cover
// the still-missing keys over the surviving servers (the failed
// servers are excluded immediately, ahead of the breaker view).
// Consecutive rounds are separated by jittered exponential backoff
// starting at backoff. attempts 0 disables re-planning — failures punt
// straight to each key's distinguished copy, as the paper's base
// §III-D scheme does. Only idempotent reads retry; writes never do.
// Default: 1 attempt, 15ms backoff.
func WithRetry(attempts int, backoff time.Duration) Option {
	return func(c *clientConfig) {
		c.retryAttempts = attempts
		c.retryBackoff = backoff
	}
}

// WithAdaptiveReplication turns on adaptive hot-key replication: the
// client tracks per-key request frequency with streaming sketches and
// grants keys that dominate recent traffic extra replicas on top of
// the baseline level (demoting them, with hysteresis, when they cool).
// Adaptive replica sets are always a superset of the baseline
// placement's with the distinguished copy unchanged, so reads never
// miss because of a promotion or demotion: new replicas start cold and
// fill in through the ordinary round-2/write-back path, and demoted
// copies linger until the server LRUs evict them. The zero
// AdaptiveConfig picks sensible defaults; see hotspot.Config for the
// knobs.
func WithAdaptiveReplication(cfg AdaptiveConfig) Option {
	return func(c *clientConfig) { c.adaptive = &cfg }
}

// WithPoolSize sets how many connections each server's transport may
// open: max(n, 1), on either wire. One (the default) pipelines every
// concurrent request to a server on one connection and lets round 2's
// write-backs ride, unanswered, in front of the next command; with n > 1
// connections are dialed on demand as requests overlap and reaped when
// idle, and write-backs are acknowledged adds, because sibling
// connections are not ordered against each other. High-fan-out callers
// (many goroutines per Client) may want more than one; see PoolGauges
// for the instrumentation. Error and replay semantics do not depend on
// n: a network failure feeds the server's circuit breaker, and only
// idempotent reads are replayed (once per request).
func WithPoolSize(n int) Option {
	return func(c *clientConfig) { c.poolSize = n }
}

// WithBinaryProtocol switches the transport to the memcached binary
// wire format: each multi-get is pipelined as N quiet gets (getq) plus
// one terminating noop — the server answers hits only, batched into a
// single backend transaction — and every other command becomes a
// fixed-header frame, eliminating text parsing on both ends. The
// connection count is WithPoolSize's, as on the text wire. Failure
// semantics (never-written resubmit, idempotent-read replay-once,
// breaker feeding) and RTT observability are identical to the text
// transport, so latency histograms stay comparable across wire formats.
func WithBinaryProtocol() Option {
	return func(c *clientConfig) { c.binary = true }
}

// WithObservability configures the client's always-on request
// recorder: the flight-recorder ring size, the slow threshold, and the
// slow-log sink (see obs.Config). The zero value — also the default
// without this option — keeps a 256-span flight recorder and all
// latency histograms but calls nothing slow.
func WithObservability(cfg ObsConfig) Option {
	return func(c *clientConfig) { c.obs = cfg }
}

// WithTracing turns on end-to-end distributed tracing: a head-sampled
// share of requests (TraceConfig.SampleEvery) carries a compact trace
// context over the wire to every server it touches, and each traced
// server returns its phase timings (queue, parse, store wait, exec,
// flush) in-band. The client stitches its own span and the returned
// timings into one causal trace — every round trip split into
// queue/wire/server components — and the request recorder keeps it
// like any other span, plus a seeded reservoir of the traced ones that
// are not slow, for the /debug/trace endpoints and Perfetto export
// (what counts as slow is ObsConfig.SlowThreshold, traced or not).
// Propagation is negotiated per server
// via the version banner, so plain memcached servers keep seeing stock
// protocol bytes; with this option off the wire is byte-identical to
// an untraced build.
func WithTracing(cfg TraceConfig) Option {
	return func(c *clientConfig) { c.trace = &cfg }
}

// WithLoader installs a cache-aside backing store: keys that miss on
// every replica AND on their distinguished server are fetched through
// the loader (one call per GetMulti), stored back (distinguished copy
// pinned, assigned replica plain), and returned with the rest. Without
// a loader such keys are simply absent from results.
func WithLoader(l Loader) Option {
	return func(c *clientConfig) { c.loader = l }
}

// Client is an RnB memcached client: a transport handle per server
// (one pipelined connection, or up to WithPoolSize of them), replica
// placement via ranged consistent hashing, and greedy bundling of
// multi-gets. The server set is dynamic: AddServer, RemoveServer, and
// SetServers change membership under load with zero read downtime
// (see elastic.go).
type Client struct {
	// cur is the immutable routing snapshot every request loads once:
	// placement, planner, and the slot table at one membership epoch.
	cur atomic.Pointer[tier]
	cfg clientConfig

	// Dynamic-topology state, serialized by topoMu (never touched by
	// the request paths).
	topoMu  sync.Mutex
	machine *topology.Machine // the one allocator of server indices
	epochs  []*epochSnap      // windowed epochs, oldest first (last = target)
	slots   []*slot           // by member index; shared with tiers by pointer
	// janitor lifecycle: started lazily on the first membership
	// change, joined in Close.
	janitorOn  bool
	stop       chan struct{}
	wg         sync.WaitGroup
	closedTxns atomic.Uint64 // transactions of already-closed slots
	hot        hotNames      // boosted key id -> name, for warm handoff

	// poolGauges is shared by every server's transport: connections,
	// pipelining, and what became of the adds round 2 deferred.
	poolGauges *memcache.PoolGauges
	failures   atomic.Uint64
	// unhealthy counts the breakers that are not closed, kept by
	// onBreaker, so the common request — every server healthy — skips
	// the probe scan without touching a breaker mutex. A server that
	// leaves the tier while quarantined keeps it above zero, which costs
	// only the scan it would have saved.
	unhealthy atomic.Int64
	// adaptive is non-nil when WithAdaptiveReplication is on: the
	// shared hot-key controller (tracker, heat table). Each tier
	// snapshot binds it to that snapshot's own baseline placement
	// (hotspot.Bound), so no tier's replica space mutates after
	// publication.
	adaptive   *hotspot.AdaptivePlacement
	resilience Resilience
	hotspot    hotspot.Counters
	topo       Topology
	// recorder is the always-on request recorder: request-phase latency
	// histograms, the head sampler, and the one store of finished spans
	// (flight recorder, slow ring, trace reservoir).
	recorder *obs.Recorder
	shut     atomic.Bool
}

// onBreaker is the transition hook every slot's breaker shares.
func (c *Client) onBreaker(from, to BreakerState) {
	switch to {
	case BreakerOpen:
		c.resilience.BreakerOpened.Add(1)
	case BreakerHalfOpen:
		c.resilience.BreakerHalfOpen.Add(1)
	case BreakerClosed:
		c.resilience.BreakerClosed.Add(1)
		c.unhealthy.Add(-1)
	}
	if from == BreakerClosed {
		c.unhealthy.Add(1)
	}
}

// Failures returns the number of server network errors observed.
func (c *Client) Failures() uint64 { return c.failures.Load() }

// Resilience exposes the client's failure-handling counters: breaker
// transitions, probe outcomes, and read re-plans.
func (c *Client) Resilience() *Resilience { return &c.resilience }

// Hotspot exposes the adaptive-replication counters (all zero unless
// WithAdaptiveReplication is on).
func (c *Client) Hotspot() *hotspot.Counters { return &c.hotspot }

// PoolGauges exposes the transport's instrumentation, shared across
// every server's connections. Never nil.
func (c *Client) PoolGauges() *memcache.PoolGauges { return c.poolGauges }

// Recorder exposes the client's request recorder: request-phase
// latency histograms, the recent, slow and sampled spans it holds
// (stitched client+server spans when traced), and the slow and trace
// counters. Never nil.
func (c *Client) Recorder() *obs.Recorder { return c.recorder }

// RecentRequests dumps the flight recorder: the last requests' full
// lifecycle spans (plan/fan-out/recovery timings, per-server RTTs,
// retries), newest first. Intended for post-mortem debugging and the
// /debug/requests endpoint.
func (c *Client) RecentRequests() []obs.Span { return c.recorder.Requests() }

// RegisterMetrics exports every one of the client's metric families
// into reg: each counter group's own table (rnb_resilience_*,
// rnb_hotspot_*, rnb_topology_*, rnb_pool_* and rnb_writeback_*), the
// client-wide totals, per-server breaker gauges,
// and the latency histograms (exported in seconds, recorded in
// nanoseconds).
func (c *Client) RegisterMetrics(reg *obs.Registry) {
	c.resilience.register(reg)
	c.hotspot.Register(reg)
	c.topo.register(reg)
	c.poolGauges.Register(reg)
	reg.Counter("rnb_server_errors", "Total network errors observed against backends.", c.Failures)
	reg.Counter("rnb_transactions", "Total protocol round trips issued.", c.Transactions)
	reg.Counter("rnb_slow_requests", "Requests at or over the slow threshold.", c.recorder.SlowSeen)
	reg.Counter("rnb_trace_started", "Requests head-sampled into distributed tracing.", c.recorder.Started)
	reg.Counter("rnb_trace_finished", "Traced requests completed and offered to the retention rules.", c.recorder.Finished)
	reg.Counter("rnb_trace_kept_slow", "Traces kept because they reached the slow threshold.", c.recorder.KeptSlow)
	reg.Counter("rnb_trace_kept_reservoir", "Normal-latency traces kept by the reservoir sampler.", c.recorder.KeptReservoir)
	// Per-server gauges are labeled by the stable slot index and emit
	// only current members: a drained server's series disappears from
	// /metrics with it (no ghost series), and reappears under the same
	// index if the server rejoins.
	perServer := func(name, help string, value func(ServerState) float64) {
		reg.Register(name, help, obs.Gauge, func() []obs.Sample {
			states := c.ServerStates()
			out := make([]obs.Sample, len(states))
			for i, st := range states {
				out[i] = obs.Sample{
					Labels: obs.Labels("server", fmt.Sprintf("%d", st.Index), "addr", st.Addr),
					Value:  value(st),
				}
			}
			return out
		})
	}
	perServer("rnb_server_breaker_state", "Breaker state per backend: 0 closed, 1 open, 2 half-open.",
		func(st ServerState) float64 { return float64(st.State) })
	perServer("rnb_server_consecutive_failures", "Current unbroken failure run per backend.",
		func(st ServerState) float64 { return float64(st.ConsecutiveFailures) })
	reg.RegisterDurationHist("rnb_request_duration_seconds",
		"End-to-end GetMulti latency.", &c.recorder.Total)
	reg.RegisterDurationHist("rnb_plan_duration_seconds",
		"Greedy set-cover planning latency per request.", &c.recorder.Plan)
	reg.RegisterDurationHist("rnb_fanout_duration_seconds",
		"Round-1 fan-out latency per request (re-plan rounds included).", &c.recorder.Fanout)
	reg.RegisterDurationHist("rnb_transport_rtt_seconds",
		"Per-round-trip transport latency, all operations.", &c.recorder.RTT)
}

// AdaptiveEnabled reports whether adaptive hot-key replication is on.
func (c *Client) AdaptiveEnabled() bool { return c.adaptive != nil }

// HotKeyCount returns the number of currently promoted keys (0 when
// adaptive replication is off).
func (c *Client) HotKeyCount() int {
	if c.adaptive == nil {
		return 0
	}
	return c.adaptive.HotKeyCount()
}

// ServerState describes one backend's health as seen by the client's
// circuit breaker — the operator-facing view behind ServerStates.
type ServerState struct {
	// Addr is the server's address.
	Addr string
	// Index is the server's stable slot index (kept across a leave
	// and rejoin; per-server metric series are labeled with it).
	Index int
	// Phase is the membership lifecycle phase ("joining", "active",
	// or "draining").
	Phase string
	// State is the breaker state (closed / open / half-open).
	State BreakerState
	// ConsecutiveFailures is the current run of unbroken failures.
	ConsecutiveFailures int
}

// ServerStates reports every current member's breaker state and
// consecutive failure count, in slot index order. Servers whose drain
// has completed are omitted — their series end rather than lingering
// as ghosts. Intended for stats endpoints and operator debugging; safe
// to call concurrently with requests.
func (c *Client) ServerStates() []ServerState {
	t := c.cur.Load()
	out := make([]ServerState, 0, len(t.slots))
	for idx, sl := range t.slots {
		if sl.closed.Load() {
			continue
		}
		state, fails := sl.breaker.snapshot()
		st := ServerState{Addr: sl.addr, Index: idx, Phase: "active", State: state, ConsecutiveFailures: fails}
		if mem, ok := t.view.Find(sl.addr); ok {
			st.Phase = mem.State.String()
		}
		out = append(out, st)
	}
	return out
}

// avoidFor returns the read paths' server filter for t: nil while every
// breaker is closed — the common request then takes no breaker mutex —
// else t.isDown, which routes around open and half-open servers.
func (c *Client) avoidFor(t *tier) func(int) bool {
	if c.cfg.cooldown <= 0 || c.unhealthy.Load() == 0 {
		return nil
	}
	return t.isDown
}

// probeHalfOpen launches the single allowed probe against every
// half-open server: a cheap version round-trip on the server's own
// connection, asynchronously so requests never wait on a probe. A
// successful probe closes the breaker and the server re-enters plans;
// a failed one re-opens it and restarts the cooldown.
func (c *Client) probeHalfOpen(t *tier) {
	if c.unhealthy.Load() == 0 || c.shut.Load() {
		return
	}
	for _, sl := range t.slots {
		if sl.closed.Load() || !sl.breaker.tryAcquireProbe() {
			continue
		}
		c.resilience.Probes.Add(1)
		go func() {
			// call, not do: the probe's verdict is onProbeResult.
			err := sl.call(func(conn *memcache.Client) error {
				_, err := conn.Version()
				return err
			})
			if err == nil {
				c.resilience.ProbeSuccesses.Add(1)
			} else {
				c.resilience.ProbeFailures.Add(1)
			}
			sl.breaker.onProbeResult(err == nil)
		}()
	}
}

// NewClient connects to the given memcached servers. At least one
// address is required; the replication level is clamped to the initial
// server count. Addresses are validated like every other server-list
// input (trimmed, no empties, no duplicates).
func NewClient(addrs []string, opts ...Option) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("rnb: need at least one server address")
	}
	addrs, err := topology.ParseServerList(addrs)
	if err != nil {
		return nil, fmt.Errorf("rnb: %w", err)
	}
	cfg := clientConfig{
		replicas:         2,
		timeout:          5 * time.Second,
		hitchhike:        true,
		pinDistinguished: true,
		cooldown:         2 * time.Second,
		breakerThreshold: 1,
		retryAttempts:    1,
		retryBackoff:     15 * time.Millisecond,
		transitionWindow: 5 * time.Second,
		drainTimeout:     5 * time.Second,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.replicas < 1 {
		return nil, fmt.Errorf("rnb: replication level %d < 1", cfg.replicas)
	}
	if cfg.replicas > len(addrs) {
		cfg.replicas = len(addrs)
	}
	machine, err := topology.NewMachine(addrs)
	if err != nil {
		return nil, fmt.Errorf("rnb: %w", err)
	}
	// The recorder exists before the transports so every connection can
	// stamp its round trips into the shared RTT histogram.
	c := &Client{
		cfg:        cfg,
		machine:    machine,
		poolGauges: &memcache.PoolGauges{},
		recorder:   obs.NewRecorder(cfg.obs, cfg.trace),
		stop:       make(chan struct{}),
	}
	// Each server's transport is dialed here, so a dead address fails
	// construction immediately. The machine numbered the members in
	// address order, so the slots are appended in member-index order.
	for _, addr := range addrs {
		conn, err := c.dial(addr)
		if err != nil {
			c.closeSlotsLocked()
			return nil, fmt.Errorf("rnb: dial %s: %w", addr, err)
		}
		c.slots = append(c.slots, c.newSlot(addr, conn))
	}
	c.epochs = []*epochSnap{c.newEpoch(machine.View())}
	if cfg.adaptive != nil {
		// The controller's own base is only the construction-time
		// default; every tier snapshot binds the controller to its own
		// epoch placement (see rebuildLocked).
		c.adaptive = hotspot.NewAdaptive(c.epochs[0].plc, *cfg.adaptive, &c.hotspot)
	}
	c.rebuildLocked()
	return c, nil
}

// dial opens the configured transport for one server address.
func (c *Client) dial(addr string) (*memcache.Client, error) {
	conn, err := memcache.NewPool(addr, c.cfg.timeout, memcache.PoolConfig{
		Size:        max(c.cfg.poolSize, 1),
		Binary:      c.cfg.binary,
		Gauges:      c.poolGauges,
		RTTObserver: c.recorder.RTT.Observe,
	})
	if err != nil {
		return nil, err
	}
	if c.cfg.trace != nil {
		conn.SetTracing(true)
	}
	return conn, nil
}

// closeSlotsLocked tears down every open slot (construction failure
// and Close).
func (c *Client) closeSlotsLocked() (first error) {
	for _, s := range c.slots {
		if err := c.closeSlotLocked(s); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops the topology janitor and tears down every server
// connection, including those still draining.
func (c *Client) Close() error {
	if c.shut.Swap(true) {
		return nil
	}
	close(c.stop)
	c.wg.Wait()
	c.topoMu.Lock()
	defer c.topoMu.Unlock()
	return c.closeSlotsLocked()
}

// Replicas reports the effective replication level.
func (c *Client) Replicas() int { return c.cfg.replicas }

// Servers reports the current live server addresses (joining and
// active members, plus draining members still inside the transition
// window) in index order.
func (c *Client) Servers() []string {
	t := c.cur.Load()
	out := make([]string, 0, len(t.slots))
	for _, sl := range t.slots {
		if !sl.closed.Load() {
			out = append(out, sl.addr)
		}
	}
	return out
}

// Transactions returns the total round trips issued across all
// servers, including servers that have since left the tier.
func (c *Client) Transactions() uint64 {
	n := c.closedTxns.Load()
	for _, sl := range c.cur.Load().slots {
		if !sl.closed.Load() {
			n += sl.conn.Transactions()
		}
	}
	return n
}

// keyID maps a key onto the planner's numeric item space.
func keyID(key string) uint64 { return xhash.String(key) }

// writeSet returns every server a mutation of key must reach,
// distinguished copy first: the key's replica set at maximum boost over
// the union of every windowed epoch. Current heat does not narrow it: a
// boosted copy can outlive its demotion in a server LRU, and the
// deterministic boost walk hands the same server back when the key
// re-heats, so a copy a mutation skipped would resurface stale.
// servers[:live] is the key's current replica set. newest is the newest
// epoch's distinguished server while a transition is open and it
// differs from servers[0], else -1.
func (t *tier) writeSet(key string) (servers []int, live, newest int) {
	servers = t.replicas(key)
	live, newest = len(servers), -1
	if t.adaptive != nil {
		servers = t.adaptive.MaxReplicas(keyID(key), nil)
	}
	if t.union != nil {
		if nd := t.newest.Replicas(keyID(key), nil)[0]; nd != servers[0] {
			newest = nd
		}
	}
	return servers, live, newest
}

// writeOp describes one mutation to apply: what each copy in the
// write set gets, and in which order.
type writeOp struct {
	// dist is what the distinguished copy gets. Any failure there, a
	// refusal (CAS conflict, miss, not stored) included, fails the
	// operation.
	dist func(*memcache.Client) error
	// replica is what the other current replicas get; nil drops them,
	// to repopulate on demand via write-back (§IV). Copies beyond the
	// current replica set are always dropped.
	replica func(*memcache.Client) error
	// alongside gives the newest epoch's distinguished copy dist too
	// while a transition is open, so the never-miss guarantee holds on
	// both sides of the cutover for keys written inside the window.
	alongside bool
	// clearFirst handles the other copies before the distinguished
	// write (§IV's atomic update) instead of after it.
	clearFirst bool
	// everyCopy sends dist to the whole write set; a miss is tolerated
	// on any copy, and on all of them is ErrCacheMiss.
	everyCopy bool
}

// dropCopy removes key's copy from one server.
func dropCopy(key string) func(*memcache.Client) error {
	return func(conn *memcache.Client) error { return conn.Delete(key) }
}

// storeOp stores one copy of it: pinned against LRU eviction for a
// distinguished copy (unless WithPinnedDistinguished(false)), plain for
// any other.
func (c *Client) storeOp(it *Item, distinguished bool) func(*memcache.Client) error {
	if distinguished && c.cfg.pinDistinguished {
		return func(conn *memcache.Client) error { return conn.SetPinned(it) }
	}
	return func(conn *memcache.Client) error { return conn.Set(it) }
}

// write runs fn against the copy of key on server s. virtualOK
// tolerates the two refusals of a copy that may legitimately not exist
// — a miss, and "not stored" from a server whose memory is full of
// pinned and hot data (§III-C-1's overbooking). Any other answer is
// returned as is (it is the operation's result); a network error is
// wrapped with verb and the server it came from, and has already fed
// that server's breaker in slot.do.
func (t *tier) write(verb, key string, s int, fn func(*memcache.Client) error, virtualOK bool) (hit bool, err error) {
	err = t.slots[s].do(fn)
	switch {
	case err == nil:
		return true, nil
	case virtualOK && (errors.Is(err, ErrCacheMiss) || errors.Is(err, memcache.ErrNotStored)):
		return false, nil
	case memcache.IsConnFatal(err):
		return false, fmt.Errorf("rnb: %s %q on %s: %w", verb, key, t.slots[s].addr, err)
	}
	return false, err
}

// apply is the one mutation routine: it computes key's write set once
// and walks it — the distinguished copy (with the newest epoch's right
// behind it), then every other copy, or the other way round for
// clearFirst — until a write fails. Every non-distinguished copy may
// be virtual.
func (c *Client) apply(verb, key string, op writeOp) error {
	t := c.cur.Load()
	servers, live, newest := t.writeSet(key)
	if !op.alongside {
		newest = -1
	}
	found := false
	for k := range servers {
		i := k
		if op.clearFirst {
			i = (k + 1) % len(servers)
		}
		s, fn := servers[i], op.dist
		switch {
		case i == 0 || op.everyCopy:
		case s == newest && !op.clearFirst:
			continue // written right behind the distinguished copy
		case op.replica != nil && i < live:
			fn = op.replica
		default:
			fn = dropCopy(key)
		}
		hit, err := t.write(verb, key, s, fn, i > 0 || op.everyCopy)
		if err == nil && i == 0 && newest >= 0 {
			_, err = t.write(verb, key, newest, op.dist, false)
		}
		if err != nil {
			return err
		}
		found = found || hit
	}
	if op.everyCopy && !found {
		return ErrCacheMiss
	}
	return nil
}

// Set stores the item on every replica server. The first replica is
// the distinguished copy and, unless WithPinnedDistinguished(false) was
// given, is stored pinned so server LRUs never evict it.
//
// A non-distinguished replica write refused with "not stored" is NOT
// an error: under overbooking (§III-C-1) a server whose memory is full
// of pinned and hot data legitimately declines cold replicas — the
// logical replica simply stays virtual until write-back or a later Set
// lands it. Network errors on any replica, and any failure on the
// distinguished copy, are errors.
//
// During a membership transition the newest layout's distinguished
// copy is pinned alongside the old one; with adaptive replication on,
// boosted copies lingering outside the current replica set are cleared.
func (c *Client) Set(it *Item) error {
	return c.apply("set", it.Key, writeOp{dist: c.storeOp(it, true), replica: c.storeOp(it, false), alongside: true})
}

// Delete removes the item from every replica server. Replica servers
// that do not currently hold a copy are not an error; a key unknown
// everywhere returns ErrCacheMiss.
func (c *Client) Delete(key string) error {
	return c.apply("delete", key, writeOp{dist: dropCopy(key), everyCopy: true})
}

// Append concatenates data after the item's value, atomically against
// the distinguished copy (stale replicas are invalidated).
func (c *Client) Append(key string, data []byte) error {
	return c.apply("append", key, writeOp{dist: func(conn *memcache.Client) error { return conn.Append(key, data) }})
}

// Prepend concatenates data before the item's value, atomically
// against the distinguished copy.
func (c *Client) Prepend(key string, data []byte) error {
	return c.apply("prepend", key, writeOp{dist: func(conn *memcache.Client) error { return conn.Prepend(key, data) }})
}

// Increment adjusts a decimal counter by delta (negative decrements,
// clamping at zero) on the distinguished copy and returns the new
// value. Stale replicas are invalidated.
func (c *Client) Increment(key string, delta int64) (uint64, error) {
	var out uint64
	err := c.apply("increment", key, writeOp{dist: func(conn *memcache.Client) (err error) {
		if delta >= 0 {
			out, err = conn.Incr(key, uint64(delta))
		} else {
			out, err = conn.Decr(key, uint64(-delta))
		}
		return err
	}})
	return out, err
}

// Touch updates the expiration of every replica of key. A key unknown
// everywhere returns ErrCacheMiss.
func (c *Client) Touch(key string, exp int32) error {
	return c.apply("touch", key, writeOp{everyCopy: true, dist: func(conn *memcache.Client) error { return conn.Touch(key, exp) }})
}

// FlushAll wipes every server in the tier (draining members included —
// they are still readable through the union).
func (c *Client) FlushAll() error {
	t := c.cur.Load()
	for _, sl := range t.slots {
		if sl.closed.Load() {
			continue
		}
		if err := sl.do(func(conn *memcache.Client) error { return conn.FlushAll() }); err != nil {
			return fmt.Errorf("rnb: flush_all on %s: %w", sl.addr, err)
		}
	}
	return nil
}

// Update atomically replaces an item using the paper's §IV scheme:
// remove every non-distinguished replica, then update the
// distinguished copy; replicas repopulate on demand via write-back.
// During a membership transition the newest layout's distinguished
// copy is written (pinned) as well, so a key updated inside the window
// still has its guaranteed copy after the old epoch retires.
func (c *Client) Update(it *Item) error {
	return c.apply("update", it.Key, writeOp{dist: c.storeOp(it, true), alongside: true, clearFirst: true})
}

// GetsDistinguished fetches keys with CAS tokens from their
// distinguished servers, bundling keys that share a distinguished
// server into one gets transaction. Only distinguished-copy tokens are
// valid for UpdateCAS, so this — not GetMulti — is the read half of a
// read-modify-write cycle (§IV).
func (c *Client) GetsDistinguished(keys []string) (map[string]*Item, error) {
	t := c.cur.Load()
	byServer := make(map[int][]string)
	for _, k := range keys {
		s := t.replicas(k)[0]
		byServer[s] = append(byServer[s], k)
	}
	out := make(map[string]*Item, len(keys))
	for s, group := range byServer {
		var items map[string]*Item
		err := t.slots[s].do(func(conn *memcache.Client) (err error) {
			items, err = conn.GetsMulti(group)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("rnb: gets on %s: %w", t.slots[s].addr, err)
		}
		for k, it := range items {
			out[k] = it
		}
	}
	return out, nil
}

// UpdateCAS atomically replaces an item if its CAS token (from a prior
// gets against the distinguished server) still matches, using the §IV
// scheme: compare-and-swap the distinguished copy, then drop the stale
// replicas so they repopulate on demand. Returns
// memcache.ErrCASConflict on a lost race and ErrCacheMiss if the key
// is gone.
func (c *Client) UpdateCAS(it *Item) error {
	return c.apply("update-cas", it.Key, writeOp{dist: func(conn *memcache.Client) error { return conn.CompareAndSwap(it) }})
}

// Get fetches a single key from its distinguished server (single-item
// requests always use the distinguished copy, §III-C-1). When the
// distinguished server's breaker is open, the first live replica acts
// in its stead.
func (c *Client) Get(key string) (*Item, error) {
	t := c.cur.Load()
	c.probeHalfOpen(t)
	if c.adaptive != nil {
		c.observeHeat([]uint64{keyID(key)}, []string{key})
	}
	replicas := t.replicas(key)
	s := replicas[0]
	if acting, ok := core.ActingDistinguished(replicas, c.avoidFor(t)); ok {
		s = acting
	}
	var it *Item
	err := t.slots[s].do(func(conn *memcache.Client) (err error) {
		it, err = conn.Get(key)
		return err
	})
	return it, err
}

// Stats reports what a GetMulti cost.
type Stats struct {
	// Transactions is the number of server round trips used.
	Transactions int
	// Round2 of those were second-round fetches after replica misses.
	Round2 int
	// Hitchhikers is the number of extra keys piggybacked onto planned
	// transactions.
	Hitchhikers int
	// Loaded is the number of keys fetched from the backing store via
	// the configured Loader (0 without one).
	Loaded int
	// Failed counts transactions that hit a network error; the affected
	// servers were quarantined and the items recovered through other
	// replicas, the loader, or reported absent.
	Failed int
	// Replans counts mid-request re-plan rounds: after round-1
	// failures, still-missing keys were re-covered over the surviving
	// servers (see WithRetry).
	Replans int
	// Retries is the number of transactions those re-plan rounds
	// issued (also included in Transactions).
	Retries int
}

// GetMulti fetches the given keys with bundled multi-gets. It returns
// the found items (keys missing from every replica and from their
// distinguished server are simply absent) plus the transaction stats.
// Duplicate keys are rejected.
func (c *Client) GetMulti(keys []string) (map[string]*Item, Stats, error) {
	return c.getMulti(keys, 0, 0, obs.TraceContext{})
}

// GetMultiTraced is GetMulti joining an externally supplied distributed
// trace: the request adopts tc's trace id (bypassing the head sampler)
// and records tc.Parent as its parent span, so a proxy can continue a
// trace that arrived on its server side down into the cache tier.
func (c *Client) GetMultiTraced(tc obs.TraceContext, keys []string) (map[string]*Item, Stats, error) {
	return c.getMulti(keys, 0, 0, tc)
}

// GetMultiLimit is GetMulti for "fetch at least minItems of these"
// requests (§III-F): the planner stops adding servers once the target
// is reachable, so fewer transactions are used. The result may contain
// more than minItems items (hitchhikers ride free) but never fewer,
// unless items are missing storage-side.
func (c *Client) GetMultiLimit(keys []string, minItems int) (map[string]*Item, Stats, error) {
	if minItems < 0 {
		return nil, Stats{}, fmt.Errorf("rnb: negative minItems %d", minItems)
	}
	return c.getMulti(keys, minItems, 0, obs.TraceContext{})
}

// GetMultiBudget fetches as many of the given keys as possible using at
// most maxTransactions round trips — "fetch as many items as you can
// within a budget" (§III-F, thesis variant). No second round is issued:
// the budget is a hard cap, so replica misses simply reduce the result.
// Servers whose breaker is open are planned around, so the budget is
// spent only where it can return items.
func (c *Client) GetMultiBudget(keys []string, maxTransactions int) (map[string]*Item, Stats, error) {
	if maxTransactions <= 0 {
		return map[string]*Item{}, Stats{}, nil
	}
	return c.getMulti(keys, 0, maxTransactions, obs.TraceContext{})
}

// observeHeat feeds a request's keys to the hotspot tracker and
// records the names of boosted keys for warm handoff on resize.
func (c *Client) observeHeat(ids []uint64, keys []string) {
	if c.adaptive == nil {
		return
	}
	c.adaptive.Observe(ids)
	for i, id := range ids {
		if c.adaptive.Boost(id) > 0 {
			c.hot.record(id, keys[i])
		}
	}
}

// finishSpan closes out a request span from the request's results and
// hands it to the recorder (histograms, slow rule, retention).
func (c *Client) finishSpan(sp *obs.Span, out map[string]*Item, stats *Stats, err error) {
	sp.TotalNS = int64(time.Since(sp.Start))
	sp.Transactions = stats.Transactions
	sp.Round2 = stats.Round2
	sp.Hitchhikers = stats.Hitchhikers
	sp.Retries = stats.Retries
	sp.Replans = stats.Replans
	sp.Failed = stats.Failed
	sp.Loaded = stats.Loaded
	sp.ItemsFound = len(out)
	if err != nil {
		sp.Err = err.Error()
	}
	c.recorder.Finish(sp)
}

// newTraceID mints a random non-zero trace id. Randomness (rather than
// a sequence) keeps ids from colliding across independent clients
// feeding one trace store.
func newTraceID() uint64 {
	for {
		if id := rand.Uint64(); id != 0 {
			return id
		}
	}
}

// fanout is the one read path behind round 1, re-plan and round 2: it
// sends every planned transaction as one multi-get, its keys cut from
// the request's one key array, then collects the replies on the calling
// goroutine in plan order and hands each to merge — no goroutine, no
// lock: whoever collects first on a connection reads it
// (memcache.Pending). The returned slice holds the failed transactions'
// servers, which the caller feeds into the re-plan exclusion set. What
// it issued, carried and lost is counted into stats, and st's span gets
// one round-trip stamp per transaction, in plan order. When the span is
// traced each multi-get carries the trace context: the RTT span is the
// server span's parent. A stamp ends when its reply is collected, after
// the ones collected before it.
func (c *Client) fanout(t *tier, st *multiGet, txns []core.Transaction, stats *Stats, phase string, round int, merge func(txn *core.Transaction, items []Item)) (failed []int) {
	stats.Transactions += len(txns)
	n := 0
	for i := range txns {
		stats.Hitchhikers += len(txns[i].Hitchhikers)
		n += len(txns[i].Primary) + len(txns[i].Hitchhikers)
	}
	sp := &st.span
	stamps := len(sp.RTTs)
	sp.RTTs = append(sp.RTTs, make([]obs.TxnRTT, len(txns))...)
	rtts := sp.RTTs[stamps:]
	sent := append(st.sent[:0], make([]memcache.Pending, len(txns))...)
	keys := st.keys[:0]
	if cap(keys) < n {
		keys = make([]string, 0, n)
	}
	for i := range txns {
		txn, rtt, from := &txns[i], &rtts[i], len(keys)
		for _, id := range txn.Primary {
			keys = append(keys, st.keyOf[id])
		}
		for _, id := range txn.Hitchhikers {
			keys = append(keys, st.keyOf[id])
		}
		rtt.Server, rtt.Addr, rtt.Keys, rtt.Phase, rtt.Round = txn.Server, t.slots[txn.Server].addr, len(keys)-from, phase, round
		var tc obs.TraceContext
		if sp.TraceID != 0 {
			rtt.SpanID = c.recorder.NextID()
			tc = obs.TraceContext{TraceID: sp.TraceID, Parent: rtt.SpanID}
		}
		rtt.OffsetNS = time.Since(sp.Start).Nanoseconds()
		t.slots[txn.Server].send(tc, keys[from:], &sent[i])
	}
	for i := range txns {
		rtt := &rtts[i]
		items, queueNS, st, err := t.slots[txns[i].Server].collect(&sent[i])
		rtt.QueueNS, rtt.ServerTimings = queueNS, st
		rtt.DurNS = time.Since(sp.Start).Nanoseconds() - rtt.OffsetNS
		if err != nil {
			rtt.Err = fmt.Sprintf("rnb: multi-get on %s: %v", rtt.Addr, err)
			failed = append(failed, txns[i].Server)
			continue
		}
		merge(&txns[i], items)
	}
	stats.Failed += len(failed)
	st.sent, st.keys = sent, keys
	if len(failed) > 0 {
		// A failed transaction's connection slot may still hold its keys:
		// a later round of this request cuts its keys from a new array.
		st.keys = nil
	}
	return failed
}

// maxBackoff caps the re-plan backoff: past it, more waiting buys
// nothing — the breaker cooldown owns long outages.
const maxBackoff = 30 * time.Second

// jitteredBackoff returns the sleep before re-plan round `round`
// (0-based): base doubled per round up to maxBackoff, with ±50%
// uniform jitter so synchronized clients do not retry in lockstep.
// Doubling by shifting (base << round) would overflow int64 for large
// rounds and hand rand.Int63n a non-positive bound, so the growth is
// computed with an explicitly capped loop instead.
func jitteredBackoff(base time.Duration, round int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for i := 0; i < round && d < maxBackoff; i++ {
		d <<= 1
	}
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	// Uniform in [d/2, 3d/2).
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// mergeItems adds one reply's items to dst, by reference into the
// reply's own array, keeping what an earlier reply already delivered.
func mergeItems(dst map[string]*Item, src []Item) {
	for i := range src {
		if _, have := dst[src[i].Key]; !have {
			dst[src[i].Key] = &src[i]
		}
	}
}

// multiGet is one multi-get's working memory: everything getMulti builds
// for a request and drops when it returns. Requests take one from
// multiGetPool and give it back after finishSpan (see release), so a
// steady stream of requests rebuilds none of it. Nothing the caller gets
// back points into it: result items live in the replies' own arrays, and
// key strings are the caller's.
type multiGet struct {
	// span is the request's lifecycle record; Recorder.Finish copies it,
	// RTT array included.
	span  obs.Span
	ids   []uint64
	keyOf map[uint64]string
	plan  core.Plan
	// keys and sent are fanout's: the keys of a round's transactions, cut
	// from one array, and their in-flight handles.
	keys []string
	sent []memcache.Pending
	// Round 2's tables: each still-missing planned key, the server round
	// 2 asks for it, the server round 1 assigned it (the write-back
	// target), and their grouping.
	missIDs      []uint64
	acting       []int
	missAssigned map[uint64]int
	round2       core.Round2
}

var multiGetPool = sync.Pool{New: func() any {
	return &multiGet{keyOf: make(map[uint64]string), missAssigned: make(map[uint64]int)}
}}

// release gives st back to the pool unless the request was too big to
// keep (a hub request's tables would be cleared by every small one
// after it) or a transaction failed: a failed Pending's connection slot
// may still hold a slice of the key array, so that record is left to
// the collector.
func (st *multiGet) release(keys int, stats *Stats) {
	if keys > core.MaxPooledItems || stats.Failed > 0 {
		return
	}
	clear(st.keyOf)
	clear(st.missAssigned)
	// A pooled record pins nothing of the caller's (key strings) or the
	// transport's (the connections a Pending names).
	clear(st.keys[:cap(st.keys)])
	clear(st.sent[:cap(st.sent)])
	multiGetPool.Put(st)
}

// keyIDs maps keys to planner item ids in st, rejecting duplicates.
func (st *multiGet) keyIDs(keys []string) error {
	st.ids = st.ids[:0]
	for _, k := range keys {
		id := keyID(k)
		if _, dup := st.keyOf[id]; dup {
			return fmt.Errorf("rnb: duplicate key %q in request", k)
		}
		st.ids = append(st.ids, id)
		st.keyOf[id] = k
	}
	return nil
}

// armSpanTrace decides whether sp joins a distributed trace: an
// externally supplied context always wins (the request continues that
// trace); otherwise the head sampler picks every Nth request and a
// fresh trace id is minted.
func (c *Client) armSpanTrace(sp *obs.Span, ext obs.TraceContext) {
	if ext.Valid() {
		sp.TraceID = ext.TraceID
		sp.ParentSpan = ext.Parent
		return
	}
	if c.recorder.ShouldTrace() {
		sp.TraceID = newTraceID()
	}
}

// getMulti is the one read pipeline: plan → fan-out → re-plan → round 2
// → loader. target > 0 is a LIMIT request; budget > 0 is a budgeted
// request, which stops after the fan-out — its transaction cap is hard,
// so nothing that would add a round trip runs.
func (c *Client) getMulti(keys []string, target, budget int, ext obs.TraceContext) (out map[string]*Item, stats Stats, err error) {
	if len(keys) == 0 {
		return map[string]*Item{}, stats, nil
	}
	// The span is this request's lifecycle record: where the time went
	// (plan, fan-out, recovery, loader), every server round trip, and
	// what failed. It lands in the flight recorder and, when slow, in
	// the slow-request log.
	op := "get_multi"
	switch {
	case budget > 0:
		op = "get_multi_budget"
	case target > 0:
		op = "get_multi_limit"
	}
	st := multiGetPool.Get().(*multiGet)
	sp := &st.span
	*sp = obs.Span{ID: c.recorder.NextID(), Op: op, Start: time.Now(), Keys: len(keys), RTTs: sp.RTTs[:0]}
	c.armSpanTrace(sp, ext)
	trips0 := c.resilience.BreakerOpened.Load()
	defer func() {
		sp.BreakerTrips = int(c.resilience.BreakerOpened.Load() - trips0)
		c.finishSpan(sp, out, &stats, err)
		st.release(len(keys), &stats)
	}()
	// One immutable routing snapshot for the whole request: placement,
	// planner, and slots cannot change underneath it even if the tier
	// resizes mid-flight (the superset invariant keeps any server this
	// snapshot names reachable for the transition window).
	t := c.cur.Load()
	if err := st.keyIDs(keys); err != nil {
		return nil, stats, err
	}
	ids, keyOf := st.ids, st.keyOf
	// Heat tracking sees every multi-get key; the epoch controller may
	// rotate the heat table here, before this request is planned.
	c.observeHeat(ids, keys)
	// Give any half-open server its probe shot before planning.
	c.probeHalfOpen(t)
	// Plan around servers whose breaker is open or half-open.
	avoid := c.avoidFor(t)
	planStart := time.Now()
	plan, err := t.planner.BuildInto(&st.plan, ids, target, budget, avoid)
	sp.PlanNS = int64(time.Since(planStart))
	if err != nil {
		return nil, stats, err
	}

	// Round 1: bundled multi-gets, hitchhikers aboard, all sent before
	// any reply is read (each server has its own connection).
	// Transaction failures quarantine the server and degrade to the
	// re-plan/round-2 recovery below rather than failing the request.
	out = make(map[string]*Item, len(keys))
	merge := func(_ *core.Transaction, items []Item) { mergeItems(out, items) }
	fanStart := time.Now()
	failedSrvs := c.fanout(t, st, plan.Transactions, &stats, "fanout", 0, merge)
	if budget > 0 {
		sp.FanoutNS = int64(time.Since(fanStart))
		return out, stats, nil
	}

	// Re-plan rounds: re-cover the still-missing planned keys over the
	// surviving servers. The servers that failed *this request* are
	// excluded immediately — ahead of the shared breaker view, which
	// may not have tripped yet with a threshold above one. Bounded by
	// WithRetry, with jittered exponential backoff between rounds.
	var excluded map[int]bool // made by the first failed transaction
	exclude := func(servers []int) {
		if excluded == nil && len(servers) > 0 {
			excluded = make(map[int]bool, len(servers))
		}
		for _, s := range servers {
			excluded[s] = true
		}
	}
	// A failure may have opened a breaker: recovery reads the live view.
	avoid = c.avoidFor(t)
	for attempt := 0; attempt < c.cfg.retryAttempts && len(failedSrvs) > 0; attempt++ {
		exclude(failedSrvs)
		var missIDs []uint64
		for i, id := range plan.Items {
			if plan.ItemServer[i] == -1 {
				continue
			}
			if _, have := out[keyOf[id]]; !have {
				missIDs = append(missIDs, id)
			}
		}
		if len(missIDs) == 0 {
			failedSrvs = nil
			break
		}
		if attempt > 0 {
			time.Sleep(jitteredBackoff(c.cfg.retryBackoff, attempt-1))
		}
		replan, err := t.planner.BuildExcluding(missIDs, 0, excluded, avoid)
		if err != nil {
			return nil, stats, err
		}
		stats.Replans++
		c.resilience.Replans.Add(1)
		stats.Retries += len(replan.Transactions)
		c.resilience.RetryTransactions.Add(uint64(len(replan.Transactions)))
		failedSrvs = c.fanout(t, st, replan.Transactions, &stats, "replan", attempt+1, merge)
	}
	sp.FanoutNS = int64(time.Since(fanStart))
	// Servers that failed during this request stay excluded for the
	// rest of it, whatever the breaker threshold says.
	exclude(failedSrvs)
	avoidNow := avoid
	if excluded != nil {
		avoidNow = func(s int) bool {
			return excluded[s] || (avoid != nil && avoid(s))
		}
	}

	// Round 2: still-missing planned items, bundled by their acting
	// distinguished server (the true one, unless it is quarantined).
	missIDs, acting, missAssigned := st.missIDs[:0], st.acting[:0], st.missAssigned
	for i, id := range plan.Items {
		if plan.ItemServer[i] == -1 {
			continue // dropped by LIMIT or all replicas down: loader below
		}
		if _, have := out[keyOf[id]]; !have {
			a, ok := core.ActingDistinguished(plan.Replicas[i], avoidNow)
			if !ok {
				continue // no live replica: loader below
			}
			missIDs = append(missIDs, id)
			acting = append(acting, a)
			missAssigned[id] = plan.ItemServer[i]
		}
	}
	st.missIDs, st.acting = missIDs, acting
	// Its transactions go to distinct servers and are sent at once; a
	// failed one degrades: its items fall to the loader or come back
	// absent.
	round2Start := time.Now()
	round2 := st.round2.Group(missIDs, acting)
	stats.Round2 += len(round2)
	c.fanout(t, st, round2, &stats, "round2", 0, func(txn *core.Transaction, items []Item) {
		// The reply is in the transaction's key order, so write-backs
		// (and the evictions they cause) happen in a seed-determined
		// order, each server's after its own reply is collected. A key
		// round 2 is not looking for is ignored.
		for i := range items {
			it := &items[i]
			assigned, missing := missAssigned[keyID(it.Key)]
			if !missing {
				continue
			}
			out[it.Key] = it
			// Write-back: repopulate the replica the planner assigned,
			// with add — the value was read a round trip ago, so it may
			// fill an empty replica but never replace what a Set has
			// stored there since. The read does not wait for it: AddLater
			// queues the add to ride, unanswered, in front of this
			// client's next command to that server, which keeps it ahead
			// of any mutation issued after this request returns. Best
			// effort, and no verdict on the server (slot.call): a dropped
			// or refused add is a replica that stays virtual, and the item
			// is served either way.
			if s := assigned; s != txn.Server && (avoidNow == nil || !avoidNow(s)) {
				if t.slots[s].call(func(conn *memcache.Client) error { return conn.AddLater(it) }) == nil {
					sp.WriteBacks++
				}
			}
		}
	})
	sp.Round2NS = int64(time.Since(round2Start))

	// Cache-aside: keys the cache tier could not serve go to the backing
	// store, then back into the tier. Under a LIMIT plan only the
	// shortfall below the target is loaded — deliberately dropped items
	// stay dropped.
	if c.cfg.loader != nil {
		loaderStart := time.Now()
		defer func() { sp.LoaderNS = int64(time.Since(loaderStart)) }()
		full := target <= 0 || target >= len(ids)
		want := len(ids)
		if !full {
			want = target
		}
		var dbKeys []string
		for _, id := range ids {
			if len(out)+len(dbKeys) >= want && !full {
				break
			}
			if _, have := out[keyOf[id]]; !have {
				dbKeys = append(dbKeys, keyOf[id])
			}
		}
		if len(dbKeys) > 0 {
			loaded, err := c.cfg.loader(dbKeys)
			if err != nil {
				return nil, stats, fmt.Errorf("rnb: loader: %w", err)
			}
			for k, v := range loaded {
				it := &Item{Key: k, Value: v}
				// Best effort: the item is served from the store either
				// way; a failing replica write only quarantines.
				_ = c.Set(it)
				out[k] = it
				stats.Loaded++
			}
		}
	}
	return out, stats, nil
}
