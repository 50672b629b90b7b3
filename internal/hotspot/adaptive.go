package hotspot

import (
	"sort"
	"sync"
	"sync/atomic"

	"rnb/internal/hashring"
	"rnb/internal/xhash"
)

// boostSalt separates the boosted-replica hash family from every other
// seeded family in the repo (placement seeds, sketch rows).
const boostSalt = 0xb0057ed5a1f00d17

// Config tunes the adaptive replication controller. The zero value is
// usable: WithDefaults picks settings sized for tens of thousands of
// requests per epoch.
type Config struct {
	// MaxBoost is the maximum number of extra replicas a hot key can be
	// granted on top of the baseline placement (default 2).
	MaxBoost int
	// PromoteFrac is the heat threshold: a key is promoted when its
	// decayed frequency estimate exceeds PromoteFrac of the decayed
	// total (default 0.002, i.e. 0.2% of recent traffic). Each doubling
	// beyond the threshold earns one more boost level up to MaxBoost.
	PromoteFrac float64
	// DemoteFrac is the hysteresis floor: a boosted key is a demotion
	// candidate only when its estimate falls below DemoteFrac of the
	// total (default PromoteFrac/4). Keys between the two thresholds
	// keep their boost, so placement does not flap.
	DemoteFrac float64
	// ColdEpochs is how many consecutive cold epochs a key must sit
	// below DemoteFrac before it is demoted (default 2).
	ColdEpochs int
	// EpochOps is the epoch length in observed keys: after this many
	// touches the controller harvests the tracker, updates the heat
	// table, and decays the counters (default 50000).
	EpochOps int
	// MaxHotKeys caps the heat table size; when more keys qualify, the
	// hottest win (default 128).
	MaxHotKeys int
	// Shards, SketchWidth, SketchDepth size the tracker (defaults 8,
	// 2048, 4). Per-key over-estimate is roughly total/(Shards*Width).
	Shards, SketchWidth, SketchDepth int
	// Seed varies the boosted-replica hash family and the sketch rows.
	Seed uint64
}

// WithDefaults fills in unset fields.
func (c Config) WithDefaults() Config {
	if c.MaxBoost <= 0 {
		c.MaxBoost = 2
	}
	if c.PromoteFrac <= 0 {
		c.PromoteFrac = 0.002
	}
	if c.DemoteFrac <= 0 {
		c.DemoteFrac = c.PromoteFrac / 4
	}
	if c.ColdEpochs <= 0 {
		c.ColdEpochs = 2
	}
	if c.EpochOps <= 0 {
		c.EpochOps = 50000
	}
	if c.MaxHotKeys <= 0 {
		c.MaxHotKeys = 128
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.SketchWidth <= 0 {
		c.SketchWidth = 2048
	}
	if c.SketchDepth <= 0 {
		c.SketchDepth = 4
	}
	return c
}

// heatTable is the immutable promoted-key view the read path consults.
// Controllers build a fresh table per epoch and swap it in atomically,
// so Replicas never takes a lock.
type heatTable struct {
	boost map[uint64]int // key -> extra replicas (1..MaxBoost)
	extra int            // sum of boosts (gauge bookkeeping)
}

// AdaptivePlacement wraps a baseline hashring.Placement with a
// heat-driven replication boost. Its replica sets are always a
// superset of the baseline's, with the baseline replicas as a prefix:
// entry 0 is still the distinguished copy, and any server a plan could
// have used before a promotion or demotion is still in the set after
// it — reads never miss because the heat table moved under them.
// Boosted replicas are drawn from the same seeded pseudo-random
// machinery as multi-hash placement, so locations are deterministic
// given the heat table.
//
// Promotions carry no data themselves: the planner starts assigning
// the key to a boosted replica, the first fetch there misses, the
// round-2 distinguished fetch recovers it, and the existing write-back
// path materializes the copy. Demotions simply shrink the advertised
// set; the surplus physical copies go cold and the server LRUs evict
// them.
type AdaptivePlacement struct {
	// base is the construction-time baseline. It never changes; a tier
	// that resizes binds the controller to each snapshot's own baseline
	// with Bind instead of mutating this one, so placements already
	// captured by in-flight requests stay frozen.
	base     hashring.Placement
	cfg      Config
	tracker  *Tracker
	counters *Counters

	heat       atomic.Pointer[heatTable]
	sinceEpoch atomic.Uint64

	// Controller state: serialized by mu; read path never touches it.
	mu   sync.Mutex
	cold map[uint64]int // boosted key -> consecutive cold epochs
}

// NewAdaptive wraps base. counters may be nil (a private set is used).
func NewAdaptive(base hashring.Placement, cfg Config, counters *Counters) *AdaptivePlacement {
	cfg = cfg.WithDefaults()
	if counters == nil {
		counters = &Counters{}
	}
	perShardTopK := cfg.MaxHotKeys/cfg.Shards + 8
	a := &AdaptivePlacement{
		base:     base,
		cfg:      cfg,
		tracker:  NewTracker(cfg.Shards, cfg.SketchWidth, cfg.SketchDepth, perShardTopK, cfg.Seed),
		counters: counters,
		cold:     make(map[uint64]int),
	}
	a.heat.Store(&heatTable{boost: map[uint64]int{}})
	return a
}

// Base returns the wrapped placement.
func (a *AdaptivePlacement) Base() hashring.Placement { return a.base }

// Bound is an immutable-base view of an AdaptivePlacement: the same
// heat table, tracker, and boost walk, but over a fixed baseline
// placement supplied at Bind time instead of the controller's own.
//
// The dynamic topology layer publishes one Bound per tier snapshot.
// Sharing one mutable AdaptivePlacement across tiers would let a
// membership change swap the base under a snapshot already loaded by
// an in-flight request — the new base can name server indices the old
// snapshot's slot table has never heard of. A Bound's replica sets are
// confined to its own base's server space for its whole life, so a
// tier snapshot really is immutable, while promotions and demotions
// (which only add or shed boosted replicas inside that space) still
// flow through from the shared heat table. Boosted replicas are drawn
// only from the servers given at Bind time, so a boost never lands on
// a server that has left the tier while its index is still allocated.
//
//rnb:frozen-after-publish
type Bound struct {
	a       *AdaptivePlacement
	base    hashring.Placement
	servers []int
}

// Bind returns a view of the controller over the given fixed base,
// boosting only onto the given server indices.
func (a *AdaptivePlacement) Bind(base hashring.Placement, servers []int) *Bound {
	return &Bound{a: a, base: base, servers: servers}
}

// Base returns the bound baseline placement.
func (b *Bound) Base() hashring.Placement { return b.base }

// NumServers implements hashring.Placement.
func (b *Bound) NumServers() int { return b.base.NumServers() }

// NumReplicas implements hashring.Placement.
func (b *Bound) NumReplicas() int { return b.base.NumReplicas() }

// Replicas implements hashring.Placement over the bound base; see
// AdaptivePlacement.Replicas.
func (b *Bound) Replicas(item uint64, buf []int) []int {
	return b.a.boostWalk(b.servers, b.base, item, b.base.Replicas(item, buf), b.a.heat.Load().boost[item])
}

// MaxReplicas is AdaptivePlacement.MaxReplicas over the bound base.
func (b *Bound) MaxReplicas(item uint64, buf []int) []int {
	return b.a.boostWalk(b.servers, b.base, item, b.base.Replicas(item, buf), b.a.cfg.MaxBoost)
}

var _ hashring.Placement = (*Bound)(nil)

// Counters returns the controller's metrics.
func (a *AdaptivePlacement) Counters() *Counters { return a.counters }

// NumServers implements hashring.Placement.
func (a *AdaptivePlacement) NumServers() int { return a.Base().NumServers() }

// NumReplicas implements hashring.Placement: the declared level is the
// baseline's (boost is a per-key, per-epoch addition on top).
func (a *AdaptivePlacement) NumReplicas() int { return a.Base().NumReplicas() }

// Boost returns the extra replicas currently granted to item (0 when
// the item is not promoted).
func (a *AdaptivePlacement) Boost(item uint64) int {
	return a.heat.Load().boost[item]
}

// HotKeyCount returns the number of currently promoted keys.
func (a *AdaptivePlacement) HotKeyCount() int {
	return len(a.heat.Load().boost)
}

// boostWalk extends a baseline replica set with up to extra boosted
// replicas drawn from servers (nil: base's dense [0, NumServers())): a
// deterministic pseudo-random walk, skipping servers already in the
// set, bailing out to a linear scan if the hash walk stalls (possible
// only when the target is close to the server count).
func (a *AdaptivePlacement) boostWalk(servers []int, base hashring.Placement, item uint64, out []int, extra int) []int {
	if extra == 0 {
		return out
	}
	n := base.NumServers()
	at := func(i int) int { return i }
	if servers != nil {
		n, at = len(servers), func(i int) int { return servers[i] }
	}
	want := len(out) + extra
	if want > n {
		want = n
	}
	for i := uint64(0); len(out) < want && i < uint64(8*n+16); i++ {
		s := at(int(xhash.Seeded(a.cfg.Seed+boostSalt+i, item) % uint64(n)))
		if !containsServer(out, s) {
			out = append(out, s)
		}
	}
	for i := 0; len(out) < want && i < n; i++ {
		if s := at(i); !containsServer(out, s) {
			out = append(out, s)
		}
	}
	return out
}

// Replicas implements hashring.Placement. The returned slice is the
// baseline replica set (same order, distinguished copy first) followed
// by the item's boosted replicas, all distinct, capped at the server
// count.
func (a *AdaptivePlacement) Replicas(item uint64, buf []int) []int {
	return a.boostWalk(nil, a.base, item, a.base.Replicas(item, buf), a.heat.Load().boost[item])
}

// MaxReplicas returns the item's replica set at maximum boost,
// regardless of its current heat. Because the boosted-replica walk is
// deterministic and level L's servers are a prefix of level L+1's,
// this is the union of every replica set the item can ever have —
// mutations that must invalidate stale copies (update, delete) use it
// so a demoted-then-repromoted key can never resurface old data from a
// lingering boosted copy.
func (a *AdaptivePlacement) MaxReplicas(item uint64, buf []int) []int {
	return a.boostWalk(nil, a.base, item, a.base.Replicas(item, buf), a.cfg.MaxBoost)
}

func containsServer(set []int, s int) bool {
	for _, have := range set {
		if have == s {
			return true
		}
	}
	return false
}

// Observe ingests one request's keys into the heat tracker and, when
// the epoch budget is spent, rotates the heat table. Safe for
// concurrent use; at most one caller runs the controller, others never
// block on it.
func (a *AdaptivePlacement) Observe(keys []uint64) {
	for _, k := range keys {
		a.tracker.Touch(k)
	}
	a.counters.Observed.Add(uint64(len(keys)))
	if a.sinceEpoch.Add(uint64(len(keys))) >= uint64(a.cfg.EpochOps) {
		if a.mu.TryLock() {
			if a.sinceEpoch.Load() >= uint64(a.cfg.EpochOps) {
				a.sinceEpoch.Store(0)
				a.rotateLocked()
			}
			a.mu.Unlock()
		}
	}
}

// ObserveOne is Observe for a single key.
func (a *AdaptivePlacement) ObserveOne(key uint64) {
	a.tracker.Touch(key)
	a.counters.Observed.Add(1)
	if a.sinceEpoch.Add(1) >= uint64(a.cfg.EpochOps) {
		if a.mu.TryLock() {
			if a.sinceEpoch.Load() >= uint64(a.cfg.EpochOps) {
				a.sinceEpoch.Store(0)
				a.rotateLocked()
			}
			a.mu.Unlock()
		}
	}
}

// ForceEpoch rotates the heat table immediately regardless of the
// epoch budget (tests, simulations, operator tooling).
func (a *AdaptivePlacement) ForceEpoch() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sinceEpoch.Store(0)
	a.rotateLocked()
}

// levelOf maps a frequency estimate to a boost level: one level at the
// promote threshold, one more per doubling, capped at max.
func levelOf(est, threshold float64, max int) int {
	if est < threshold || threshold <= 0 {
		return 0
	}
	level := 1
	for level < max && est >= threshold*float64(uint64(1)<<uint(level)) {
		level++
	}
	return level
}

// rotateLocked runs one controller epoch: harvest the tracker, promote
// keys above the threshold, demote keys that stayed below the
// hysteresis floor for ColdEpochs epochs, and publish the new table.
// Caller holds a.mu.
func (a *AdaptivePlacement) rotateLocked() {
	h := a.tracker.HarvestAndDecay(-1)
	a.counters.Epochs.Add(1)
	a.counters.SketchErrGap.Add(h.SketchGap)
	if h.Total == 0 {
		return
	}
	total := float64(h.Total)
	promoteTh := a.cfg.PromoteFrac * total
	demoteTh := a.cfg.DemoteFrac * total

	old := a.heat.Load().boost
	next := make(map[uint64]int, len(old))
	var promotions, demotions uint64

	harvested := make(map[uint64]uint64, len(h.Entries))
	for _, e := range h.Entries {
		harvested[e.Key] = e.Count
	}

	// Existing boosted keys: keep (hysteresis) unless cold for
	// ColdEpochs consecutive epochs.
	for key, lvl := range old {
		est, ok := harvested[key]
		if !ok {
			// Not a top-k survivor; fall back to the post-decay sketch
			// estimate. It is an upper bound on the key's decayed heat —
			// deliberately NOT doubled back to pre-decay scale, because
			// doubling also doubles the sketch's collision noise
			// (~total/width) and a genuinely cold key could then sit
			// above the demotion floor forever. The un-doubled bound
			// demotes such keys a little earlier; the ColdEpochs
			// hysteresis already guards against flapping.
			est = a.tracker.Estimate(key)
		}
		if float64(est) < demoteTh {
			a.cold[key]++
			if a.cold[key] >= a.cfg.ColdEpochs {
				delete(a.cold, key)
				demotions++
				continue
			}
			next[key] = lvl
			continue
		}
		delete(a.cold, key)
		// Re-grade upward only when the key clears the promote
		// threshold again; never drop levels while warm (hysteresis).
		if newLvl := levelOf(float64(est), promoteTh, a.cfg.MaxBoost); newLvl > lvl {
			promotions++
			lvl = newLvl
		}
		next[key] = lvl
	}

	// Fresh promotions from the harvest, hottest first.
	for _, e := range h.Entries {
		if _, have := next[e.Key]; have {
			continue
		}
		lvl := levelOf(float64(e.Count), promoteTh, a.cfg.MaxBoost)
		if lvl == 0 {
			continue
		}
		next[e.Key] = lvl
		promotions++
	}

	// Cap the table at MaxHotKeys, keeping the hottest.
	if len(next) > a.cfg.MaxHotKeys {
		type hotKey struct {
			key uint64
			est uint64
		}
		ranked := make([]hotKey, 0, len(next))
		for key := range next {
			est, ok := harvested[key]
			if !ok {
				// Same un-doubled post-decay bound as the demotion check
				// above: it under-ranks non-harvest keys relative to the
				// pre-decay harvest counts, which is the right bias when
				// the table is over the cap.
				est = a.tracker.Estimate(key)
			}
			ranked = append(ranked, hotKey{key, est})
		}
		sort.Slice(ranked, func(i, j int) bool {
			if ranked[i].est != ranked[j].est {
				return ranked[i].est > ranked[j].est
			}
			return ranked[i].key < ranked[j].key
		})
		for _, hk := range ranked[a.cfg.MaxHotKeys:] {
			if _, wasBoosted := old[hk.key]; wasBoosted {
				demotions++
			} else {
				promotions-- // promotion rescinded before publication
			}
			delete(next, hk.key)
			delete(a.cold, hk.key)
		}
	}

	extra := 0
	for _, lvl := range next {
		extra += lvl
	}
	a.heat.Store(&heatTable{boost: next, extra: extra})
	a.counters.Promotions.Add(promotions)
	a.counters.Demotions.Add(demotions)
	a.counters.HotKeys.Store(int64(len(next)))
	a.counters.BoostReplicas.Store(int64(extra))
}

var _ hashring.Placement = (*AdaptivePlacement)(nil)
