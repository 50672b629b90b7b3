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
		MaxBoost:    4,
		PromoteFrac: 0.05,
		DemoteFrac:  0.0125,
		EpochOps:    1 << 62, // rotate manually
	}, nil)
	placementtest.Run(t, a, 1000)

	// Promote a band of keys and re-check the full contract on the
	// boosted placement.
	for i := 0; i < 3000; i++ {
		a.ObserveOne(uint64(i % 10))
		a.ObserveOne(uint64(100 + i%500))
	}
	a.ForceEpoch()
	if a.HotKeyCount() == 0 {
		t.Fatal("no keys promoted; contract re-check would be vacuous")
	}
	placementtest.Run(t, a, 1000)
}

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
	// The invalidation set must carry the current set as a prefix,
	// whatever the item's boost level: writes clear every server the
	// key could ever live on.
	max := a.MaxReplicas(item, nil)
	if len(max) < len(got) {
		t.Fatalf("item %d: MaxReplicas %v smaller than current set %v", item, max, got)
	}
	for i, s := range got {
		if max[i] != s {
			t.Fatalf("item %d: current set not a prefix of MaxReplicas: %v vs %v", item, got, max)
		}
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
	a := NewAdaptive(base, Config{
		MaxBoost:    3,
		PromoteFrac: 0.01,
		ColdEpochs:  1,
		MaxHotKeys:  8, // small cap so cap-eviction paths run
		EpochOps:    1 << 62,
	}, nil)

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
		hot := a.heat.Load().boost
		for key := range hot {
			checkSuperset(t, a, base, key)
		}
	}
	c := a.Counters()
	if c.Promotions.Load() == 0 || c.Demotions.Load() == 0 {
		t.Fatalf("property run did not exercise both transitions: promotions=%d demotions=%d", c.Promotions.Load(), c.Demotions.Load())
	}
}

func TestAdaptivePromotesAndDemotes(t *testing.T) {
	base := newBase(t, 16, 2)
	counters := &Counters{}
	a := NewAdaptive(base, Config{
		MaxBoost:    2,
		PromoteFrac: 0.05,
		DemoteFrac:  0.0125,
		ColdEpochs:  2,
		EpochOps:    1 << 62, // rotate manually
	}, counters)

	const hot = uint64(99)
	baseLen := len(base.Replicas(hot, nil))

	// 30% of the stream is the hot key: must be promoted.
	for i := 0; i < 3000; i++ {
		a.ObserveOne(hot)
		a.ObserveOne(uint64(1000 + i%2000))
		if i%3 == 0 {
			a.ObserveOne(uint64(5000 + i))
		}
	}
	a.ForceEpoch()
	if a.Boost(hot) == 0 {
		t.Fatalf("hot key not promoted (boost=0, hot keys=%d)", a.HotKeyCount())
	}
	got := a.Replicas(hot, nil)
	if len(got) != baseLen+a.Boost(hot) {
		t.Fatalf("boosted set %v does not carry %d extra replicas", got, a.Boost(hot))
	}
	if counters.Promotions.Load() == 0 || counters.HotKeys.Load() == 0 {
		t.Fatalf("promotion counters not updated: promotions=%d hot_keys=%d", counters.Promotions.Load(), counters.HotKeys.Load())
	}

	// Cold traffic only: the decayed estimate takes a few epochs to
	// sink below DemoteFrac, and the ColdEpochs streak adds two more —
	// the key must NOT demote immediately, and must demote eventually.
	coldStream := func() {
		for i := 0; i < 2000; i++ {
			a.ObserveOne(uint64(10000 + i))
		}
	}
	coldEpochs := 0
	for a.Boost(hot) != 0 && coldEpochs < 16 {
		coldStream()
		a.ForceEpoch()
		coldEpochs++
	}
	if a.Boost(hot) != 0 {
		t.Fatalf("hot key still boosted after %d cold epochs", coldEpochs)
	}
	if coldEpochs < 3 {
		t.Fatalf("demoted after only %d cold epochs; decay smoothing plus ColdEpochs=2 should hold longer", coldEpochs)
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
		MaxBoost:    2,
		PromoteFrac: 0.20,
		DemoteFrac:  0.02,
		ColdEpochs:  2,
		EpochOps:    1 << 62,
	}, nil)
	const key = uint64(5)
	// Epoch 1: 33% of traffic — promoted.
	for i := 0; i < 1000; i++ {
		a.ObserveOne(key)
		a.ObserveOne(uint64(100 + i))
		a.ObserveOne(uint64(5000 + i))
	}
	a.ForceEpoch()
	if a.Boost(key) == 0 {
		t.Fatal("not promoted")
	}
	// Epochs 2-4: ~6% of traffic — between demote (2%) and promote
	// (20%) thresholds. The boost must hold (no flapping).
	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 2000; i++ {
			if i%16 == 0 {
				a.ObserveOne(key)
			}
			a.ObserveOne(uint64(100000 + epoch*10000 + i))
		}
		a.ForceEpoch()
		if a.Boost(key) == 0 {
			t.Fatalf("warm key demoted in epoch %d despite hysteresis band", epoch+2)
		}
	}
}

func TestAdaptiveEpochTriggerAndConcurrency(t *testing.T) {
	base := newBase(t, 16, 2)
	a := NewAdaptive(base, Config{EpochOps: 500, PromoteFrac: 0.05}, nil)
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
	if a.Counters().Epochs.Load() == 0 {
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
