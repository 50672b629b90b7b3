package rnb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rnb/internal/core"
	"rnb/internal/hashring"
	"rnb/internal/hotspot"
	"rnb/internal/memcache"
	"rnb/internal/obs"
	"rnb/internal/topology"
)

// This file is the dynamic-topology layer: servers can be added to and
// drained from a live Client with zero read downtime.
//
// The request paths never lock. Every request loads one immutable
// *tier snapshot (an atomic pointer) and works entirely against it: the
// tier's placement, planner, and slot table cannot change under a
// request. Membership changes build a new tier and swap the pointer.
//
// Correctness across the swap rests on the superset invariant
// (topology.Union): while any epoch is inside its transition window,
// the tier's placement is the union of all windowed epochs, oldest
// first — so a plan built against the previous tier only ever names
// servers the new tier still reaches, and entry 0 (the replica the
// round-2 recovery walk trusts) stays the oldest epoch's pinned
// distinguished copy. Writes fan out over the same union, so no
// epoch's replica can serve stale data.
//
// topology.Machine is the only allocator of server indices. Each epoch's
// ring is built from the View it stands for, every joining and active
// member at its member index, and the slot table — the per-server
// connection, breaker, and in-flight counter — is indexed the same
// way: a server keeps its index for its whole life, and a server that
// leaves and later rejoins revives its old index. Tiers share slot
// pointers; each tier owns only the slice header, so a rejoin replacing
// a slot is invisible to in-flight requests holding the old tier.

// errServerGone is returned by slot.do for a server whose drain has
// completed. Plans stop naming such servers as soon as the tier swaps;
// only requests planned against an older tier can see it, and they
// recover through the ordinary failure path (breaker + re-plan).
var errServerGone = errors.New("rnb: server has left the tier")

// slot is one server's long-lived request-path state. A slot is
// created when its server joins and closed when its drain completes;
// everything in between is lock-free atomics.
type slot struct {
	addr    string
	conn    *memcache.Client
	breaker *breaker
	// failures is the client-wide network-error count (Client.Failures).
	failures *atomic.Uint64
	// inflight counts operations currently inside conn, a multi-get from
	// its send to its collect. The janitor closes a draining slot's
	// connection only once this reaches zero (or the drain timeout
	// forces it), so pipelined requests already on the wire are never
	// cut.
	inflight atomic.Int64
	// closed flips once, just before the connection is torn down. New
	// operations are refused from then on.
	closed atomic.Bool
	// forceAt is the drain deadline, set under topoMu once a draining
	// server has left every windowed epoch; past it the connection is
	// closed even with requests still in flight.
	forceAt time.Time
}

// newSlot wires a dialed server to the client-wide breaker hook and failure count.
func (c *Client) newSlot(addr string, conn *memcache.Client) *slot {
	return &slot{
		addr:     addr,
		conn:     conn,
		breaker:  newBreaker(c.cfg.breakerThreshold, c.cfg.cooldown, c.onBreaker),
		failures: &c.failures,
	}
}

// call runs one operation against the slot's connection, tracked by the
// in-flight counter. The closed check and the increment race benignly
// with the janitor: at worst an operation reaches a just-closed
// connection and gets its error, which feeds the breaker like any
// other network failure.
func (s *slot) call(fn func(*memcache.Client) error) error {
	if s.closed.Load() {
		return errServerGone
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	return fn(s.conn)
}

// do is call plus the breaker verdict: every per-server operation goes
// through it or through send and collect. Only the half-open probe uses
// call directly; its verdict is onProbeResult.
func (s *slot) do(fn func(*memcache.Client) error) error {
	err := s.call(fn)
	s.verdict(err)
	return err
}

// verdict is the only place an operation's error becomes a statement
// about the server's health. A connection-fatal error
// (memcache.IsConnFatal: I/O failure, corrupt frame, a server gone from
// the tier) is a failure. Anything the server answered — miss, not
// stored, CAS conflict, bad key, too large, SERVER_ERROR — shows it
// alive, and a request refused before the wire (bad key, too large)
// counts the same: it says nothing against the server.
func (s *slot) verdict(err error) {
	if memcache.IsConnFatal(err) {
		s.failures.Add(1)
		s.breaker.onFailure()
	} else {
		s.breaker.onSuccess()
	}
}

// send starts a multi-get on the slot's server, in flight until collect
// takes the breaker verdict on it. On a slot already closed it fails,
// its connection closed, and collect reports that.
func (s *slot) send(tc obs.TraceContext, keys []string, h *memcache.Pending) {
	s.inflight.Add(1)
	s.conn.SendGet(tc, keys, h)
}

func (s *slot) collect(h *memcache.Pending) (items []Item, queueNS int64, st *obs.ServerTimings, err error) {
	items, queueNS, st, err = h.Collect()
	s.inflight.Add(-1)
	s.verdict(err)
	return items, queueNS, st, err
}

// tier is one immutable routing snapshot: everything a request needs,
// captured at a single membership epoch.
//
//rnb:frozen-after-publish
type tier struct {
	// epoch is the membership state machine's epoch this tier reflects.
	epoch uint64
	// view is the membership roster at that epoch.
	view topology.View
	// placement is what the planner consults: the newest epoch's
	// baseline, union-layered during a transition, adaptive-wrapped
	// when hot-key replication is on.
	placement hashring.Placement
	// union is non-nil while a transition window is open (placement's
	// baseline is then a multi-epoch union).
	union *topology.Union
	// newest is the newest epoch's baseline placement — the tier's
	// target layout. Writes pin its distinguished copies during a
	// transition so the never-miss guarantee survives the cutover.
	newest hashring.Placement
	// adaptive is the snapshot's bound view of the hot-key controller
	// (nil when adaptive replication is off). It shares the client-wide
	// heat table but is fixed to this tier's baseline, so its replica
	// indices never escape this tier's slot table even after newer
	// epochs grow the server space.
	adaptive *hotspot.Bound
	// planner bundles multi-gets against placement.
	planner *core.Planner
	// slots is the index-stable slot table (shared pointers, private
	// slice header). Indices come from placements; closed slots are
	// drained-and-gone servers still referenced by older epochs.
	slots []*slot
}

// replicas returns the key's replica servers under this tier, oldest
// distinguished copy first, in a buffer sized for r of them (a boosted
// or multi-epoch set grows it once).
func (t *tier) replicas(key string) []int {
	return t.placement.Replicas(keyID(key), make([]int, 0, t.placement.NumReplicas()))
}

// isDown reports whether reads should route around server s.
func (t *tier) isDown(s int) bool {
	return !t.slots[s].breaker.available()
}

// epochSnap is one membership epoch still inside its transition
// window: the placement over its own ring.
type epochSnap struct {
	plc hashring.Placement
	// servers are the indices of the epoch's joining and active members.
	servers []int
	// superseded is when a newer epoch replaced this one (zero while
	// newest). The epoch retires transitionWindow after that.
	superseded time.Time
}

// newEpoch builds the epoch v stands for: a ring holding its joining
// and active members, each at its member index.
func (c *Client) newEpoch(v topology.View) *epochSnap {
	e := &epochSnap{}
	names := make([]string, len(v.Members))
	for _, m := range v.Members {
		if m.State == topology.StateJoining || m.State == topology.StateActive {
			names[m.Index] = m.Addr
			e.servers = append(e.servers, m.Index)
		}
	}
	e.plc = hashring.NewRCHPlacement(hashring.NewIndexed(hashring.DefaultVirtualNodes, names), c.cfg.replicas)
	return e
}

// janitorInterval is how often the background janitor retires expired
// epochs and completes drains.
const janitorInterval = 50 * time.Millisecond

// maxHotNames bounds the id -> key-name map kept for warm handoff.
const maxHotNames = 1024

// hotNames remembers the string names of currently boosted keys.
// The hotspot tracker works in hashed ids; prewarming a new owner
// needs the actual key to fetch and store, so the client records the
// mapping as boosted keys flow through reads.
type hotNames struct {
	mu sync.Mutex
	m  map[uint64]string
}

func (h *hotNames) record(id uint64, key string) {
	h.mu.Lock()
	if h.m == nil {
		h.m = make(map[uint64]string)
	}
	if _, ok := h.m[id]; ok || len(h.m) < maxHotNames {
		h.m[id] = key
	}
	h.mu.Unlock()
}

func (h *hotNames) snapshot() map[uint64]string {
	h.mu.Lock()
	out := make(map[uint64]string, len(h.m))
	for id, key := range h.m {
		out[id] = key
	}
	h.mu.Unlock()
	return out
}

// prune drops entries whose keys are no longer boosted.
func (h *hotNames) prune(stillHot func(uint64) bool) {
	h.mu.Lock()
	for id := range h.m {
		if !stillHot(id) {
			delete(h.m, id)
		}
	}
	h.mu.Unlock()
}

// WithTransitionWindow sets how long a superseded membership epoch
// stays layered into the read/write placement union (default 5s).
// Within the window, reads consult both the old and the new layout, so
// no multi-get misses because a resize moved its keys; the window
// should cover a client's longest in-flight request plus the time
// write-back needs to warm the new owners. Shorter windows cut over
// faster but lean harder on the loader for moved cold keys.
func WithTransitionWindow(d time.Duration) Option {
	return func(c *clientConfig) { c.transitionWindow = d }
}

// WithDrainTimeout bounds how long a departing server's connection may
// wait for its in-flight requests after the server has left every
// windowed epoch (default 5s). Past the timeout the connection is
// closed anyway; the affected requests fail into the ordinary
// breaker/re-plan recovery.
func WithDrainTimeout(d time.Duration) Option {
	return func(c *clientConfig) { c.drainTimeout = d }
}

// ensureJanitorLocked starts the background janitor on the first
// membership change (static clients never pay the goroutine). Caller
// holds topoMu.
func (c *Client) ensureJanitorLocked() {
	if c.janitorOn {
		return
	}
	c.janitorOn = true
	c.wg.Add(1)
	go c.janitor()
}

func (c *Client) janitor() {
	defer c.wg.Done()
	tick := time.NewTicker(janitorInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-tick.C:
			c.janitorTick(now)
		}
	}
}

// janitorTick retires epochs whose transition window has passed,
// completes drains whose servers are out of every remaining epoch, and
// prunes the hot-name map.
func (c *Client) janitorTick(now time.Time) {
	c.topoMu.Lock()
	changed := false
	for len(c.epochs) > 1 && now.Sub(c.epochs[0].superseded) >= c.cfg.transitionWindow {
		c.epochs = c.epochs[1:]
		c.topo.EpochsRetired.Add(1)
		changed = true
	}
	for _, m := range c.machine.View().Members {
		if m.State != topology.StateDraining || c.anyEpochHasLocked(m.Index) {
			continue
		}
		s := c.slots[m.Index]
		if s.forceAt.IsZero() {
			s.forceAt = now.Add(c.cfg.drainTimeout)
		}
		inflight := s.inflight.Load()
		if inflight > 0 && now.Before(s.forceAt) {
			continue
		}
		_ = c.closeSlotLocked(s) // nobody left to report a drained connection's close error to
		c.machine.Finish(m.Addr)
		if inflight > 0 {
			c.topo.DrainsForced.Add(1)
		} else {
			c.topo.DrainsCompleted.Add(1)
		}
		changed = true
	}
	if changed {
		c.rebuildLocked()
	}
	c.topoMu.Unlock()

	if c.adaptive != nil {
		c.hot.prune(func(id uint64) bool { return c.adaptive.Boost(id) > 0 })
	}
}

func (c *Client) anyEpochHasLocked(idx int) bool {
	for _, e := range c.epochs {
		if slices.Contains(e.servers, idx) {
			return true
		}
	}
	return false
}

// closeSlotLocked tears a slot down exactly once, folding its
// transaction count into the client-lifetime total so Transactions()
// stays monotonic across membership changes. Caller holds topoMu.
func (c *Client) closeSlotLocked(s *slot) error {
	if s.closed.Swap(true) {
		return nil
	}
	c.closedTxns.Add(s.conn.Transactions())
	return s.conn.Close()
}

// pushEpochLocked opens a new membership epoch: the previous newest
// epoch enters its transition window and the current View's epoch
// becomes the target layout. Caller holds topoMu.
func (c *Client) pushEpochLocked() {
	c.epochs[len(c.epochs)-1].superseded = time.Now()
	c.epochs = append(c.epochs, c.newEpoch(c.machine.View()))
	c.rebuildLocked()
}

// rebuildLocked publishes a fresh tier snapshot from the current
// epochs and slot table. Caller holds topoMu.
func (c *Client) rebuildLocked() {
	eps := make([]hashring.Placement, len(c.epochs))
	for i, e := range c.epochs {
		eps[i] = e.plc
	}
	var (
		base  hashring.Placement
		union *topology.Union
	)
	if len(eps) == 1 {
		base = eps[0]
	} else {
		union = topology.NewUnion(len(c.slots), eps...)
		base = union
	}
	placement := base
	newest := c.epochs[len(c.epochs)-1]
	var bound *hotspot.Bound
	if c.adaptive != nil {
		// Each tier binds the shared controller to its own baseline:
		// heat flows through, but this snapshot's replica indices are
		// fixed to its slot table forever (older snapshots must not see
		// indices a later epoch allocated), and boosts go only to the
		// newest epoch's members.
		bound = c.adaptive.Bind(base, newest.servers)
		placement = bound
	}
	t := &tier{
		epoch:     c.machine.Epoch(),
		view:      c.machine.View(),
		placement: placement,
		union:     union,
		newest:    newest.plc,
		adaptive:  bound,
		planner: core.NewPlanner(placement, core.Options{
			Hitchhike:            c.cfg.hitchhike,
			DistinguishedSingles: true,
		}),
		slots: append([]*slot(nil), c.slots...),
	}
	c.cur.Store(t)
	c.topo.Epoch.Store(t.epoch)
}

// Topology tracks the dynamic-membership machinery: joins, drains,
// epoch retirements, warm-handoff prewarm traffic and config reloads.
// All fields are atomics, bumped in place; the zero value is ready.
type Topology struct {
	Epoch atomic.Uint64

	Joins   atomic.Uint64
	Rejoins atomic.Uint64
	Drains  atomic.Uint64

	DrainsCompleted atomic.Uint64
	DrainsForced    atomic.Uint64

	EpochsRetired atomic.Uint64

	PrewarmKeys   atomic.Uint64
	PrewarmErrors atomic.Uint64

	Reloads      atomic.Uint64
	ReloadErrors atomic.Uint64
}

// register names every field, once, for every rendering of reg.
func (t *Topology) register(reg *obs.Registry) {
	reg.Gauge("rnb_topology_epoch", "Current membership epoch; bumps on every accepted transition.", func() int64 { return int64(t.Epoch.Load()) })
	reg.Counter("rnb_topology_joins", "Servers added, first time or rejoin.", t.Joins.Load)
	reg.Counter("rnb_topology_rejoins", "Joins that revived a previously drained slot.", t.Rejoins.Load)
	reg.Counter("rnb_topology_drains", "Drains initiated.", t.Drains.Load)
	reg.Counter("rnb_topology_drains_completed", "Drains whose connection closed with zero requests in flight.", t.DrainsCompleted.Load)
	reg.Counter("rnb_topology_drains_forced", "Drains whose timeout expired with requests still in flight.", t.DrainsForced.Load)
	reg.Counter("rnb_topology_epochs_retired", "Superseded epochs dropped from the placement union.", t.EpochsRetired.Load)
	reg.Counter("rnb_topology_prewarm_keys", "Hot keys copied onto their new owners by the warm handoff.", t.PrewarmKeys.Load)
	reg.Counter("rnb_topology_prewarm_errors", "Best-effort warm-handoff copies that failed.", t.PrewarmErrors.Load)
	reg.Counter("rnb_topology_reloads", "Membership lists applied through SetServers (file watch, SIGHUP).", t.Reloads.Load)
	reg.Counter("rnb_topology_reload_errors", "Membership lists SetServers rejected.", t.ReloadErrors.Load)
}

// Topology exposes the dynamic-membership counters.
func (c *Client) Topology() *Topology { return &c.topo }

// Epoch returns the current membership epoch.
func (c *Client) Epoch() uint64 { return c.cur.Load().epoch }

// View returns the current membership roster.
func (c *Client) View() topology.View { return c.cur.Load().view }

// AddServer adds a server to the live tier with zero read downtime.
// The server is dialed, joins the membership state machine, and enters
// the placement in a new epoch; until the transition window closes,
// reads consult the union of the old and new layouts, so nothing
// misses because keys moved. With adaptive replication on, tracked hot
// keys the new server will own are copied over before the server is
// activated (warm handoff). Re-adding a server whose drain is still in
// progress is an error until the drain completes.
func (c *Client) AddServer(addr string) error {
	list, err := topology.ParseServerList([]string{addr})
	if err != nil {
		return err
	}
	addr = list[0]

	c.topoMu.Lock()
	if c.shut.Load() {
		c.topoMu.Unlock()
		return errors.New("rnb: client is closed")
	}
	// Refuse live members before dialing (Join would refuse them too,
	// but failing fast keeps the no-op error path free of network I/O).
	if mem, ok := c.machine.View().Find(addr); ok && mem.State != topology.StateGone {
		c.topoMu.Unlock()
		return fmt.Errorf("rnb: add %s: server is already %s", addr, mem.State)
	}
	// Dial before Join: a refused connection — the common failure —
	// leaves the machine exactly as it was, and nothing after Join can
	// fail.
	conn, err := c.dial(addr)
	if err != nil {
		c.topoMu.Unlock()
		return fmt.Errorf("rnb: add %s: %w", addr, err)
	}
	v, err := c.machine.Join(addr)
	if err != nil {
		conn.Close()
		c.topoMu.Unlock()
		return err
	}
	mem, _ := v.Find(addr)
	idx := mem.Index
	s := c.newSlot(addr, conn)
	if idx < len(c.slots) {
		// Revived index: the old slot was closed when the drain
		// finished (Join refuses draining members), so nothing still
		// routes to it through the slot table.
		c.slots[idx] = s
		c.topo.Rejoins.Add(1)
	} else {
		c.slots = append(c.slots, s)
	}
	c.topo.Joins.Add(1)
	c.ensureJanitorLocked()
	c.pushEpochLocked()
	c.topoMu.Unlock()

	// Warm handoff, outside the lock: requests already run against the
	// union, so the copies land on a serving-but-cold member.
	c.prewarmHotKeys(idx, true)

	c.topoMu.Lock()
	if _, err := c.machine.Activate(addr); err == nil {
		c.rebuildLocked()
	}
	c.topoMu.Unlock()
	return nil
}

// RemoveServer gracefully drains a server out of the live tier. The
// server leaves the target layout immediately, but stays readable
// through the union until the transition window closes; its tracked
// hot keys are copied onto their new owners first (warm handoff, when
// adaptive replication is on). The connection is closed by the
// background janitor only after in-flight requests finish (bounded by
// WithDrainTimeout). Removing the last live server is an error.
func (c *Client) RemoveServer(addr string) error {
	list, err := topology.ParseServerList([]string{addr})
	if err != nil {
		return err
	}
	addr = list[0]

	c.topoMu.Lock()
	if c.shut.Load() {
		c.topoMu.Unlock()
		return errors.New("rnb: client is closed")
	}
	v := c.machine.View()
	mem, ok := v.Find(addr)
	if !ok || (mem.State != topology.StateActive && mem.State != topology.StateJoining) {
		c.topoMu.Unlock()
		return fmt.Errorf("rnb: remove %s: not a live member", addr)
	}
	// Draining members are still readable but already leaving — they
	// must not count toward "someone will still be here". Counting them
	// would let a 2-server tier drain both members back to back and
	// retire to an empty ring.
	if v.Count(topology.StateActive)+v.Count(topology.StateJoining) <= 1 {
		c.topoMu.Unlock()
		return fmt.Errorf("rnb: remove %s: cannot remove the last server", addr)
	}
	if _, err := c.machine.Drain(addr); err != nil {
		c.topoMu.Unlock()
		return err
	}
	c.topo.Drains.Add(1)
	c.ensureJanitorLocked()
	c.pushEpochLocked()
	c.topoMu.Unlock()

	c.prewarmHotKeys(mem.Index, false)
	return nil
}

// SetServers reconciles the live tier to the target list: servers not
// yet members are added, members not in the list are drained. This is
// the config-reload entry point (file watch, SIGHUP). Additions run
// before removals so a full replacement never passes through an empty
// tier. Individual failures (for example re-adding a server whose
// drain is still in progress) are collected, not fatal; the reload is
// retried in full on the next config change. Not safe for concurrent
// use with itself — serialize reloads (the topology watcher does).
func (c *Client) SetServers(addrs []string) error {
	list, err := topology.ParseServerList(addrs)
	if err != nil {
		c.topo.ReloadErrors.Add(1)
		return err
	}
	want := make(map[string]bool, len(list))
	for _, a := range list {
		want[a] = true
	}
	c.topoMu.Lock()
	have := make(map[string]bool)
	for _, m := range c.machine.View().Members {
		if m.State == topology.StateActive || m.State == topology.StateJoining {
			have[m.Addr] = true
		}
	}
	c.topoMu.Unlock()

	var errs []error
	for _, a := range list {
		if !have[a] {
			if err := c.AddServer(a); err != nil {
				errs = append(errs, err)
			}
		}
	}
	for a := range have {
		if !want[a] {
			if err := c.RemoveServer(a); err != nil {
				errs = append(errs, err)
			}
		}
	}
	c.topo.Reloads.Add(1)
	if len(errs) > 0 {
		c.topo.ReloadErrors.Add(1)
	}
	return errors.Join(errs...)
}

// WaitSettled blocks until no transition is in progress — a single
// epoch, no draining connections, every member active or gone — or the
// timeout passes. Mainly for tests and orderly shutdown sequences.
func (c *Client) WaitSettled(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.topoMu.Lock()
		settled := len(c.epochs) == 1
		if settled {
			for _, m := range c.machine.View().Members {
				if m.State == topology.StateJoining || m.State == topology.StateDraining {
					settled = false
					break
				}
			}
		}
		c.topoMu.Unlock()
		if settled {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// prewarmHotKeys is the warm-handoff pass: every tracked hot key that
// slot idx is gaining (joining) or losing (draining) is fetched
// through the normal read path and copied onto its owners under the
// newest layout, so the hottest traffic never cold-starts after a
// resize. Best effort: errors are counted, never fatal. A no-op
// without adaptive replication (nothing tracks heat).
func (c *Client) prewarmHotKeys(idx int, joining bool) {
	if c.adaptive == nil {
		return
	}
	t := c.cur.Load()
	for id, key := range c.hot.snapshot() {
		newSet := t.newest.Replicas(id, nil)
		var targets []int
		if joining {
			if !slices.Contains(newSet, idx) {
				continue
			}
			targets = []int{idx}
		} else {
			if !slices.Contains(t.placement.Replicas(id, nil), idx) {
				continue
			}
			for _, s := range newSet {
				if s != idx {
					targets = append(targets, s)
				}
			}
		}
		it, err := c.Get(key)
		if err != nil {
			if !errors.Is(err, ErrCacheMiss) {
				c.topo.PrewarmErrors.Add(1)
			}
			continue
		}
		for _, dst := range targets {
			err := t.slots[dst].do(c.storeOp(it, dst == newSet[0]))
			if err != nil && !errors.Is(err, memcache.ErrNotStored) {
				c.topo.PrewarmErrors.Add(1)
				continue
			}
			c.topo.PrewarmKeys.Add(1)
		}
	}
}
