package hotspot

import (
	"math/rand"
	"sync"
	"testing"

	"rnb/internal/hashring"
	"rnb/internal/hashring/placementtest"
	"rnb/internal/workload"
)

// TestAdaptivePlacementContract runs the adaptive placement through
// the shared placement contract battery — cold, then again mid-boost:
// heat transitions must not move the distinguished copy or break
// distinctness.
func TestAdaptivePlacementContract(t *testing.T) {
	base := newBase(t, 16, 3)
	a := NewAdaptive(base, Config{
		MaxBoost: 4,
		EpochOps: 1 << 62, // rotate manually
	}, nil)
	placementtest.Run(t, a, 1000)

	// Promote a band of keys (5% of the stream each; the other 500 get
	// 0.1%, under the 0.2% threshold) and re-check the full contract on
	// the boosted placement.
	for i := 0; i < 3000; i++ {
		a.Observe([]uint64{uint64(i % 10), uint64(100 + i%500)})
	}
	a.ForceEpoch()
	if hotKeys(a) == 0 {
		t.Fatal("no keys promoted; contract re-check would be vacuous")
	}
	placementtest.Run(t, a, 1000)
}

// boost is the extra replicas a's heat table grants item (0 when the
// item is not promoted); hotKeys is the number of promoted keys.
func boost(a *AdaptivePlacement, item uint64) int { return (*a.heat.Load())[item] }
func hotKeys(a *AdaptivePlacement) int            { return len(*a.heat.Load()) }

func newBase(t *testing.T, servers, replicas int) hashring.Placement {
	t.Helper()
	ring := hashring.NewWithServers(servers, 32)
	return hashring.NewRCHPlacement(ring, replicas)
}

// checkSuperset asserts the adaptive set extends the baseline set as a
// prefix, with distinct in-range entries.
func checkSuperset(t *testing.T, a *AdaptivePlacement, base hashring.Placement, item uint64) {
	t.Helper()
	want := base.Replicas(item, nil)
	got := a.Replicas(item, nil)
	if len(got) < len(want) {
		t.Fatalf("item %d: adaptive set %v smaller than baseline %v", item, got, want)
	}
	for i, s := range want {
		if got[i] != s {
			t.Fatalf("item %d: baseline not a prefix: adaptive %v, baseline %v", item, got, want)
		}
	}
	seen := make(map[int]bool, len(got))
	for _, s := range got {
		if s < 0 || s >= base.NumServers() {
			t.Fatalf("item %d: server %d out of range", item, s)
		}
		if seen[s] {
			t.Fatalf("item %d: duplicate server %d in %v", item, s, got)
		}
		seen[s] = true
	}
}

// TestAdaptiveSupersetInvariant is the property test behind the
// no-miss-mid-transition guarantee: across arbitrary skewed traffic
// and epoch rotations (promotions, re-grades, demotions, table caps),
// every item's adaptive replica set contains the baseline placement's
// replicas as a prefix — so any replica a plan could use before a heat
// transition is still valid after it.
func TestAdaptiveSupersetInvariant(t *testing.T) {
	base := newBase(t, 16, 2)
	rng := rand.New(rand.NewSource(42))
	c := &Counters{}
	a := NewAdaptive(base, Config{
		MaxBoost:   3,
		MaxHotKeys: 8, // small cap so cap-eviction paths run
		EpochOps:   1 << 62,
	}, c)

	const universe = 4000
	zipf := workload.NewZipf(1.3, universe, 7)
	keys := make([]uint64, 64)
	for round := 0; round < 60; round++ {
		// Shift the hot set every few rounds so keys heat up AND cool
		// down (promote, re-grade, demote, cap-evict all exercised).
		shift := uint64((round / 10) * 500)
		for i := 0; i < 40; i++ {
			for j := range keys {
				keys[j] = (zipf.Next() + shift) % universe
			}
			a.Observe(keys)
		}
		a.ForceEpoch()
		for i := 0; i < 200; i++ {
			checkSuperset(t, a, base, uint64(rng.Intn(universe)))
		}
		// Promoted keys specifically (they have the extended sets).
		for key := range *a.heat.Load() {
			checkSuperset(t, a, base, key)
		}
	}
	if c.Promotions.Load() == 0 || c.Demotions.Load() == 0 {
		t.Fatalf("property run did not exercise both transitions: promotions=%d demotions=%d", c.Promotions.Load(), c.Demotions.Load())
	}
}

// exactTopK is a heat-table cap whose per-shard top-k (MaxHotKeys/8+8
// slots) holds every distinct key the tests below stream per epoch, so
// SpaceSaving never inflates a cold key's count toward the 0.2% promote
// threshold.
const exactTopK = 4096

func TestAdaptivePromotesAndDemotes(t *testing.T) {
	base := newBase(t, 16, 2)
	counters := &Counters{}
	a := NewAdaptive(base, Config{
		MaxBoost:   2,
		MaxHotKeys: exactTopK,
		EpochOps:   1 << 62, // rotate manually
	}, counters)

	const hot = uint64(99)
	baseLen := len(base.Replicas(hot, nil))

	// 40% of the stream is the hot key: must be promoted. Every other
	// key stays under the threshold.
	for i := 0; i < 3000; i++ {
		a.Observe([]uint64{hot, uint64(1000 + i%2000)})
		if i%3 == 0 {
			a.Observe([]uint64{uint64(5000 + i)})
		}
	}
	a.ForceEpoch()
	if boost(a, hot) == 0 {
		t.Fatalf("hot key not promoted (boost=0, hot keys=%d)", hotKeys(a))
	}
	if hotKeys(a) != 1 {
		t.Fatalf("%d keys promoted, want only the hot one", hotKeys(a))
	}
	got := a.Replicas(hot, nil)
	if len(got) != baseLen+boost(a, hot) {
		t.Fatalf("boosted set %v does not carry %d extra replicas", got, boost(a, hot))
	}
	if counters.Promotions.Load() == 0 || counters.HotKeys.Load() == 0 {
		t.Fatalf("promotion counters not updated: promotions=%d hot_keys=%d", counters.Promotions.Load(), counters.HotKeys.Load())
	}

	// Cold traffic only: the decayed estimate takes many epochs to
	// sink below the demotion floor, and the two-epoch cold streak
	// adds one more — the key must NOT demote immediately, and must
	// demote eventually.
	epochs := 0
	for boost(a, hot) != 0 && epochs < 20 {
		for i := 0; i < 2000; i++ {
			a.Observe([]uint64{uint64(10000 + i)})
		}
		a.ForceEpoch()
		epochs++
	}
	if boost(a, hot) != 0 {
		t.Fatalf("hot key still boosted after %d cold epochs", epochs)
	}
	if epochs < 3 {
		t.Fatalf("demoted after only %d cold epochs; decay smoothing plus the cold streak should hold longer", epochs)
	}
	if counters.Demotions.Load() == 0 {
		t.Fatal("demotion not counted")
	}
	// Back to the baseline set exactly.
	if got := a.Replicas(hot, nil); len(got) != baseLen {
		t.Fatalf("demoted set %v, want baseline length %d", got, baseLen)
	}
}

func TestAdaptiveHysteresisHoldsWarmKeys(t *testing.T) {
	base := newBase(t, 8, 1)
	a := NewAdaptive(base, Config{
		MaxBoost:   2,
		MaxHotKeys: exactTopK,
		EpochOps:   1 << 62,
	}, nil)
	const key = uint64(5)
	// touch observes key n times, then as many fresh keys as background.
	fresh := uint64(100)
	touch := func(n, background int) {
		for i := 0; i < n; i++ {
			a.Observe([]uint64{key})
		}
		for i := 0; i < background; i++ {
			a.Observe([]uint64{fresh})
			fresh++
		}
	}
	// Epoch 1: 10 touches in 2010, 0.5% of traffic — promoted.
	touch(10, 2000)
	a.ForceEpoch()
	if boost(a, key) == 0 {
		t.Fatal("not promoted")
	}
	// Epochs 2-4: 2 touches in 3002 each. The decayed estimate sits
	// between the demotion floor (0.05%) and the promote threshold
	// (0.2%) of the decayed total. The boost must hold (no flapping).
	for epoch := 0; epoch < 3; epoch++ {
		touch(2, 3000)
		if est, total := float64(a.tracker.Estimate(key)), float64(a.tracker.Total()); est >= promoteFrac*total || est < demoteFrac*total {
			t.Fatalf("epoch %d: estimate %.0f of %.0f is outside the hysteresis band", epoch+2, est, total)
		}
		a.ForceEpoch()
		if boost(a, key) == 0 {
			t.Fatalf("warm key demoted in epoch %d despite hysteresis band", epoch+2)
		}
	}
}

func TestAdaptiveEpochTriggerAndConcurrency(t *testing.T) {
	base := newBase(t, 16, 2)
	counters := &Counters{}
	a := NewAdaptive(base, Config{EpochOps: 500}, counters)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			keys := make([]uint64, 16)
			for i := 0; i < 200; i++ {
				for j := range keys {
					// Skewed: half the touches land on 4 hot keys.
					if rng.Intn(2) == 0 {
						keys[j] = uint64(rng.Intn(4))
					} else {
						keys[j] = uint64(rng.Intn(10000))
					}
				}
				a.Observe(keys)
				_ = a.Replicas(keys[0], nil) // reads race the controller
			}
		}(w)
	}
	wg.Wait()
	if counters.Epochs.Load() == 0 {
		t.Fatal("ops-driven epoch never fired")
	}
	for key := uint64(0); key < 4; key++ {
		checkSuperset(t, a, base, key)
	}
}

func TestLevelOf(t *testing.T) {
	for _, c := range []struct {
		est, th float64
		max     int
		want    int
	}{
		{0, 10, 3, 0},
		{9.9, 10, 3, 0},
		{10, 10, 3, 1},
		{19.9, 10, 3, 1},
		{20, 10, 3, 2},
		{40, 10, 3, 3},
		{1e9, 10, 3, 3},
		{5, 0, 3, 0}, // degenerate threshold
	} {
		if got := levelOf(c.est, c.th, c.max); got != c.want {
			t.Errorf("levelOf(%g, %g, %d) = %d, want %d", c.est, c.th, c.max, got, c.want)
		}
	}
}
