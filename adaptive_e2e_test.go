package rnb

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"rnb/internal/leakcheck"
	"rnb/internal/memcache"
)

// TestAdaptiveEndToEnd drives a real client against in-process servers
// with adaptive replication on: a hot key must be promoted from the
// request stream alone, reads must keep returning the right value
// through the promotion (boosted replicas start cold and fill via
// round 2 + write-back), and an update after promotion must never
// serve the old value afterwards (the invalidation set covers boosted
// copies).
func TestAdaptiveEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	cl, _ := newTestClient(t, 8,
		WithReplicas(2),
		WithAdaptiveReplication(AdaptiveConfig{
			MaxBoost:    2,
			PromoteFrac: 0.05,
			EpochOps:    150,
		}),
	)
	if !cl.AdaptiveEnabled() {
		t.Fatal("AdaptiveEnabled() = false with WithAdaptiveReplication on")
	}

	const hot = "celebrity:0:profile"
	if err := cl.Set(&Item{Key: hot, Value: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	batch := make([]string, 0, 9)
	for i := 0; i < 200; i++ {
		if err := cl.Set(&Item{Key: fmt.Sprintf("cold:%04d", i), Value: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	// Skewed traffic: the hot key rides in every multi-get.
	for round := 0; cl.HotKeyCount() == 0 && round < 40; round++ {
		batch = batch[:0]
		batch = append(batch, hot)
		for i := 0; i < 8; i++ {
			batch = append(batch, fmt.Sprintf("cold:%04d", (round*8+i)%200))
		}
		items, _, err := cl.GetMulti(batch)
		if err != nil {
			t.Fatal(err)
		}
		if got := items[hot]; got == nil || !bytes.Equal(got.Value, []byte("v1")) {
			t.Fatalf("round %d: hot key wrong mid-promotion: %v", round, got)
		}
	}
	if cl.HotKeyCount() == 0 {
		t.Fatalf("hot key never promoted:%s", scalars(cl))
	}
	if cl.Hotspot().Promotions.Load() == 0 {
		t.Fatalf("promotion counter not exported:%s", scalars(cl))
	}

	// Update while boosted: every future read, bundled or single, must
	// see v2 — stale boosted copies would surface here.
	if err := cl.Update(&Item{Key: hot, Value: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		it, err := cl.Get(hot)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(it.Value, []byte("v2")) {
			t.Fatalf("read %d after update: got %q, want v2", i, it.Value)
		}
		items, _, err := cl.GetMulti([]string{hot, fmt.Sprintf("cold:%04d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if got := items[hot]; got == nil || !bytes.Equal(got.Value, []byte("v2")) {
			t.Fatalf("bundled read %d after update: got %v, want v2", i, got)
		}
	}

	// Delete while (possibly still) boosted: gone everywhere.
	if err := cl.Delete(hot); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get(hot); err != ErrCacheMiss {
		t.Fatalf("get after delete: %v, want miss", err)
	}
}

// TestSetClearsMaxBoostSet pins down the demote → Set → re-promote
// staleness hazard: a boosted copy materialized by write-back can
// outlive a demotion in a server LRU, and because the boost walk is
// deterministic the same server rejoins the replica set when the key
// re-heats. A Set issued while the key is cold must therefore clear
// the whole max-boost set, not just the current replicas — otherwise
// the lingering copy shadows the new value after re-promotion.
func TestSetClearsMaxBoostSet(t *testing.T) {
	leakcheck.Check(t)
	cl, servers := newTestClient(t, 8,
		WithReplicas(2),
		WithAdaptiveReplication(AdaptiveConfig{
			MaxBoost:    2,
			PromoteFrac: 0.05,
			EpochOps:    150,
		}),
	)

	const hot = "celebrity:9:profile"
	current := cl.cur.Load().replicas(hot)
	maxSet, _, _ := cl.cur.Load().writeSet(hot)
	if len(maxSet) <= len(current) {
		t.Fatalf("max-boost set %v does not extend the current set %v", maxSet, current)
	}

	// Plant stale copies on every boosted-walk server, simulating
	// copies materialized during an earlier promotion that survived
	// demotion.
	for _, s := range maxSet {
		if slices.Contains(current, s) {
			continue
		}
		err := servers[s].Store().Set(&memcache.Item{Key: hot, Value: []byte("v0-stale")})
		if err != nil {
			t.Fatal(err)
		}
	}

	if err := cl.Set(&Item{Key: hot, Value: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	for _, s := range maxSet {
		if slices.Contains(current, s) {
			continue
		}
		if _, err := servers[s].Store().Get(hot); !errors.Is(err, memcache.ErrCacheMiss) {
			t.Fatalf("server %d still holds a copy after Set (err=%v); it would resurface stale on re-promotion", s, err)
		}
	}

	// End-to-end: heat the key until it is promoted and confirm every
	// read — single and bundled — sees the Set value.
	for i := 0; i < 200; i++ {
		if err := cl.Set(&Item{Key: fmt.Sprintf("cold:%04d", i), Value: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]string, 0, 9)
	for round := 0; cl.adaptive.Boost(keyID(hot)) == 0 && round < 40; round++ {
		batch = batch[:0]
		batch = append(batch, hot)
		for i := 0; i < 8; i++ {
			batch = append(batch, fmt.Sprintf("cold:%04d", (round*8+i)%200))
		}
		if _, _, err := cl.GetMulti(batch); err != nil {
			t.Fatal(err)
		}
	}
	if cl.adaptive.Boost(keyID(hot)) == 0 {
		t.Fatalf("hot key never promoted:%s", scalars(cl))
	}
	for i := 0; i < 30; i++ {
		it, err := cl.Get(hot)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(it.Value, []byte("v1")) {
			t.Fatalf("read %d after re-promotion: got %q, want v1", i, it.Value)
		}
		items, _, err := cl.GetMulti([]string{hot, fmt.Sprintf("cold:%04d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if got := items[hot]; got == nil || !bytes.Equal(got.Value, []byte("v1")) {
			t.Fatalf("bundled read %d after re-promotion: got %v, want v1", i, got)
		}
	}
}

// TestTouchReachesLingeringBoostedCopy: a key is promoted, stored while
// boosted (so the boosted replicas hold real copies), then left to
// demote — the copies linger on servers outside its replica set. A
// Touch must still reach them, exactly as Delete does: when the key
// re-heats the deterministic boost walk hands the same servers back,
// and a copy that kept its old deadline would expire under (or outlive)
// the rest.
func TestTouchReachesLingeringBoostedCopy(t *testing.T) {
	leakcheck.Check(t)
	cl, servers := newTestClient(t, 8,
		WithReplicas(2),
		WithAdaptiveReplication(AdaptiveConfig{
			MaxBoost:    2,
			PromoteFrac: 0.05,
			ColdEpochs:  1,
			EpochOps:    1 << 30, // epochs rotate only when forced below
		}),
	)
	for _, srv := range servers {
		srv.Store().SetClock(func() int64 { return 1000 })
	}
	const hot = "celebrity:7:profile"
	id := keyID(hot)
	base := cl.cur.Load().replicas(hot)

	for i := 0; i < 1000; i++ {
		cl.adaptive.Observe([]uint64{id})
	}
	cl.adaptive.ForceEpoch()
	if cl.adaptive.Boost(id) == 0 {
		t.Fatalf("hot key never promoted:%s", scalars(cl))
	}
	boosted := cl.cur.Load().replicas(hot)[len(base):]
	if err := cl.Set(&Item{Key: hot, Value: []byte("v1"), Expiration: 10}); err != nil {
		t.Fatal(err)
	}

	// Other traffic only: the key goes cold and is demoted.
	for epoch := 0; epoch < 16 && cl.adaptive.Boost(id) > 0; epoch++ {
		for i := 0; i < 4000; i++ {
			cl.adaptive.Observe([]uint64{keyID(fmt.Sprintf("other:%d:%d", epoch, i%7))})
		}
		cl.adaptive.ForceEpoch()
	}
	if cl.adaptive.Boost(id) > 0 {
		t.Fatalf("hot key never demoted:%s", scalars(cl))
	}
	if got := cl.cur.Load().replicas(hot); !slices.Equal(got, base) {
		t.Fatalf("replica set after demotion = %v, want the baseline %v", got, base)
	}
	for _, s := range boosted {
		it, err := servers[s].Store().Get(hot)
		if err != nil || it.Expiration != 1010 {
			t.Fatalf("boosted copy on server %d not lingering with its Set deadline: %+v, %v", s, it, err)
		}
	}

	if err := cl.Touch(hot, 60); err != nil {
		t.Fatal(err)
	}
	for _, s := range append(slices.Clone(base), boosted...) {
		it, err := servers[s].Store().Get(hot)
		if err != nil {
			t.Fatalf("copy on server %d gone after Touch: %v", s, err)
		}
		if it.Expiration != 1060 {
			t.Errorf("copy on server %d has deadline %d after Touch, want 1060", s, it.Expiration)
		}
	}
}
