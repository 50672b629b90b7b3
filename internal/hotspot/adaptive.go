package hotspot

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"rnb/internal/hashring"
	"rnb/internal/xhash"
)

// boostSalt separates the boosted-replica hash family from every other
// seeded family in the repo (placement seeds, sketch rows).
const boostSalt = 0xb0057ed5a1f00d17

// The tracker's size: shards, and each shard's sketch width and depth.
// Per-key over-estimate is roughly total/(trackerShards*sketchWidth).
const (
	trackerShards = 8
	sketchWidth   = 2048
	sketchDepth   = 4
)

// The controller's thresholds. A key is promoted when its decayed
// frequency estimate exceeds promoteFrac of the decayed total (0.2% of
// recent traffic); each doubling beyond that earns one more boost
// level, up to MaxBoost. A boosted key is demoted only after coldEpochs
// consecutive epochs below demoteFrac of the total: keys between the
// two thresholds keep their boost, so placement does not flap.
const (
	promoteFrac = 0.002
	demoteFrac  = promoteFrac / 4
	coldEpochs  = 2
)

// Config tunes the adaptive replication controller. The zero value is
// usable: WithDefaults picks settings sized for tens of thousands of
// requests per epoch.
type Config struct {
	// MaxBoost is the maximum number of extra replicas a hot key can be
	// granted on top of the baseline placement (default 2).
	MaxBoost int
	// EpochOps is the epoch length in observed keys: after this many
	// touches the controller harvests the tracker, updates the heat
	// table, and decays the counters (default 50000).
	EpochOps int
	// MaxHotKeys caps the heat table size; when more keys qualify, the
	// hottest win (default 128).
	MaxHotKeys int
	// Seed varies the boosted-replica hash family and the sketch rows.
	Seed uint64
}

// WithDefaults fills in unset fields.
func (c Config) WithDefaults() Config {
	if c.MaxBoost <= 0 {
		c.MaxBoost = 2
	}
	if c.EpochOps <= 0 {
		c.EpochOps = 50000
	}
	if c.MaxHotKeys <= 0 {
		c.MaxHotKeys = 128
	}
	return c
}

// heatTable is the immutable promoted-key view the read path consults:
// key -> extra replicas (1..MaxBoost). Controllers build a fresh table
// per epoch and swap it in atomically, so Replicas never takes a lock.
type heatTable map[uint64]int

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
	perShardTopK := cfg.MaxHotKeys/trackerShards + 8
	a := &AdaptivePlacement{
		base:     base,
		cfg:      cfg,
		tracker:  NewTracker(trackerShards, sketchWidth, sketchDepth, perShardTopK, cfg.Seed),
		counters: counters,
		cold:     make(map[uint64]int),
	}
	a.heat.Store(&heatTable{})
	return a
}

// NumServers implements hashring.Placement.
func (a *AdaptivePlacement) NumServers() int { return a.base.NumServers() }

// NumReplicas implements hashring.Placement: the declared level is the
// baseline's (boost is a per-key, per-epoch addition on top).
func (a *AdaptivePlacement) NumReplicas() int { return a.base.NumReplicas() }

// boostWalk extends a baseline replica set with up to extra boosted
// replicas drawn from the base's servers: a deterministic pseudo-random
// walk, skipping servers already in the set, bailing out to a linear
// scan if the hash walk stalls (possible only when the target is close
// to the server count).
func (a *AdaptivePlacement) boostWalk(item uint64, out []int, extra int) []int {
	if extra == 0 {
		return out
	}
	n := a.base.NumServers()
	want := min(len(out)+extra, n)
	for i := uint64(0); len(out) < want && i < uint64(8*n+16); i++ {
		if s := int(xhash.Seeded(a.cfg.Seed+boostSalt+i, item) % uint64(n)); !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	for s := 0; len(out) < want && s < n; s++ {
		if !slices.Contains(out, s) {
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
	return a.boostWalk(item, a.base.Replicas(item, buf), (*a.heat.Load())[item])
}

// Observe ingests one request's keys into the heat tracker and, when
// the epoch budget is spent, rotates the heat table. Safe for
// concurrent use; at most one caller runs the controller, others never
// block on it.
func (a *AdaptivePlacement) Observe(keys []uint64) {
	for _, k := range keys {
		a.tracker.Touch(k)
	}
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
// hysteresis floor for coldEpochs epochs, and publish the new table.
// Caller holds a.mu.
func (a *AdaptivePlacement) rotateLocked() {
	h := a.tracker.HarvestAndDecay(-1)
	a.counters.Epochs.Add(1)
	if h.Total == 0 {
		return
	}
	total := float64(h.Total)
	promoteTh := promoteFrac * total
	demoteTh := demoteFrac * total

	old := *a.heat.Load()
	next := make(heatTable, len(old))
	var promotions, demotions uint64

	harvested := make(map[uint64]uint64, len(h.Entries))
	for _, e := range h.Entries {
		harvested[e.Key] = e.Count
	}

	// Existing boosted keys: keep (hysteresis) unless cold for
	// coldEpochs consecutive epochs.
	for key, lvl := range old {
		est, ok := harvested[key]
		if !ok {
			// Not a top-k survivor; fall back to the post-decay sketch
			// estimate. It is an upper bound on the key's decayed heat —
			// deliberately NOT doubled back to pre-decay scale, because
			// doubling also doubles the sketch's collision noise
			// (~total/width) and a genuinely cold key could then sit
			// above the demotion floor forever. The un-doubled bound
			// demotes such keys a little earlier; the coldEpochs
			// hysteresis already guards against flapping.
			est = a.tracker.Estimate(key)
		}
		if float64(est) < demoteTh {
			a.cold[key]++
			if a.cold[key] >= coldEpochs {
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
	a.heat.Store(&next)
	a.counters.Promotions.Add(promotions)
	a.counters.Demotions.Add(demotions)
	a.counters.HotKeys.Store(int64(len(next)))
	a.counters.BoostReplicas.Store(int64(extra))
}

var _ hashring.Placement = (*AdaptivePlacement)(nil)
