package lru

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPutGet(t *testing.T) {
	c := New[string, int](10)
	if !c.Put("a", 1, 1, false) {
		t.Fatal("Put rejected")
	}
	v, ok := c.Get("a")
	if !ok || v != 1 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Fatal("Get of missing key succeeded")
	}
}

func TestEvictsLRUOrder(t *testing.T) {
	c := New[int, int](3)
	var evicted []int
	c.OnEvict(func(k, _ int) { evicted = append(evicted, k) })
	for i := 1; i <= 3; i++ {
		c.Put(i, i, 1, false)
	}
	c.Get(1) // 1 becomes MRU; LRU order now 2,3
	c.Put(4, 4, 1, false)
	c.Put(5, 5, 1, false)
	if want := []int{2, 3}; !reflect.DeepEqual(evicted, want) {
		t.Fatalf("evicted %v, want %v", evicted, want)
	}
	if !c.Contains(1) || !c.Contains(4) || !c.Contains(5) {
		t.Fatal("wrong survivors")
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	c := New[int, int](3)
	c.Put(100, 0, 1, true)
	for i := 0; i < 50; i++ {
		c.Put(i, i, 1, false)
	}
	if !c.Contains(100) {
		t.Fatal("pinned entry was evicted")
	}
	if c.Cost() > c.Capacity() {
		t.Fatalf("cost %d exceeds capacity %d", c.Cost(), c.Capacity())
	}
}

func TestPinnedAcceptedPastCapacity(t *testing.T) {
	c := New[int, int](2)
	for i := 0; i < 5; i++ {
		if !c.Put(i, i, 1, true) {
			t.Fatalf("pinned Put %d rejected", i)
		}
	}
	if c.Len() != 5 || c.PinnedCost() != 5 {
		t.Fatalf("Len=%d PinnedCost=%d", c.Len(), c.PinnedCost())
	}
	// No room left for unpinned entries at all.
	if c.Put(99, 99, 1, false) {
		t.Fatal("unpinned Put accepted with pinned cost >= capacity")
	}
}

func TestUnpinnedRejectedWhenTooLarge(t *testing.T) {
	c := New[string, int](4)
	c.Put("pin", 0, 3, true)
	if c.Put("big", 0, 2, false) {
		t.Fatal("insert that can never fit was accepted")
	}
	if !c.Put("ok", 0, 1, false) {
		t.Fatal("fitting insert rejected")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1, 1, false)
	c.Put(2, 2, 1, false)
	if v, ok := c.Peek(1); !ok || v != 1 {
		t.Fatalf("Peek = %d,%v", v, ok)
	}
	c.Put(3, 3, 1, false) // should evict 1: Peek must not have promoted it
	if c.Contains(1) {
		t.Fatal("Peek promoted entry")
	}
	if _, ok := c.Peek(99); ok {
		t.Fatal("Peek of missing key succeeded")
	}
}

func TestTouchPromotes(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1, 1, false)
	c.Put(2, 2, 1, false)
	if !c.Touch(1) {
		t.Fatal("Touch failed")
	}
	c.Put(3, 3, 1, false) // evicts 2
	if !c.Contains(1) || c.Contains(2) {
		t.Fatal("Touch did not promote")
	}
	if c.Touch(42) {
		t.Fatal("Touch of missing key succeeded")
	}
}

func TestUpdateExisting(t *testing.T) {
	c := New[string, string](10)
	c.Put("k", "v1", 2, false)
	c.Put("k", "v2", 5, false)
	v, _ := c.Get("k")
	if v != "v2" {
		t.Fatalf("value = %q", v)
	}
	if c.Cost() != 5 {
		t.Fatalf("Cost = %d, want 5 after resize", c.Cost())
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestUpdateResizeEvictsOthersNotSelf(t *testing.T) {
	c := New[int, int](4)
	c.Put(1, 1, 2, false)
	c.Put(2, 2, 2, false)
	// Growing key 1 to cost 4 must evict key 2, not key 1 itself.
	if !c.Put(1, 10, 4, false) {
		t.Fatal("resize rejected")
	}
	if !c.Contains(1) || c.Contains(2) {
		t.Fatal("resize evicted the wrong entry")
	}
	if c.Cost() != 4 {
		t.Fatalf("Cost = %d", c.Cost())
	}
}

func TestPromoteToPinned(t *testing.T) {
	c := New[int, int](3)
	c.Put(1, 1, 1, false)
	c.Put(1, 1, 1, true) // promote
	for i := 10; i < 20; i++ {
		c.Put(i, i, 1, false)
	}
	if !c.Contains(1) {
		t.Fatal("promoted entry evicted")
	}
	if c.PinnedCost() != 1 {
		t.Fatalf("PinnedCost = %d", c.PinnedCost())
	}
}

func TestDelete(t *testing.T) {
	c := New[int, int](5)
	c.Put(1, 1, 1, false)
	c.Put(2, 2, 2, true)
	if !c.Delete(1) || !c.Delete(2) {
		t.Fatal("Delete failed")
	}
	if c.Delete(1) {
		t.Fatal("double Delete succeeded")
	}
	if c.Len() != 0 || c.Cost() != 0 || c.PinnedCost() != 0 {
		t.Fatalf("Len=%d Cost=%d Pinned=%d after deletes", c.Len(), c.Cost(), c.PinnedCost())
	}
}

func TestDeleteDoesNotFireOnEvict(t *testing.T) {
	c := New[int, int](5)
	fired := false
	c.OnEvict(func(int, int) { fired = true })
	c.Put(1, 1, 1, false)
	c.Delete(1)
	if fired {
		t.Fatal("Delete fired OnEvict")
	}
}

func TestKeysMRUOrder(t *testing.T) {
	c := New[int, int](5)
	for i := 1; i <= 3; i++ {
		c.Put(i, i, 1, false)
	}
	c.Get(1)
	if want := []int{1, 3, 2}; !reflect.DeepEqual(c.Keys(), want) {
		t.Fatalf("Keys = %v, want %v", c.Keys(), want)
	}
}

func TestZeroCapacity(t *testing.T) {
	c := New[int, int](0)
	if c.Put(1, 1, 1, false) {
		t.Fatal("Put accepted into zero-capacity cache")
	}
	if !c.Put(2, 2, 1, true) {
		t.Fatal("pinned Put rejected (pinned always fits)")
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New[int, int](-1)
}

func TestNegativeCostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New[int, int](1).Put(1, 1, -2, false)
}

func TestEvictionsCounter(t *testing.T) {
	c := New[int, int](2)
	for i := 0; i < 5; i++ {
		c.Put(i, i, 1, false)
	}
	if c.Evictions() != 3 {
		t.Fatalf("Evictions = %d, want 3", c.Evictions())
	}
}

// TestQuickInvariants drives a random op sequence and checks the cache's
// core invariants after every step.
func TestQuickInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const capacity = 20
		c := New[int, int](capacity)
		pinned := map[int]bool{}
		for op := 0; op < 300; op++ {
			k := r.Intn(30)
			switch r.Intn(5) {
			case 0, 1:
				pin := r.Intn(8) == 0
				cost := int64(1 + r.Intn(3))
				if ok := c.Put(k, k, cost, pin); ok && (pin || pinned[k]) {
					pinned[k] = true
				}
			case 2:
				c.Get(k)
			case 3:
				c.Touch(k)
			case 4:
				if c.Delete(k) {
					delete(pinned, k)
				}
			}
			// Invariant: unpinned cost never exceeds capacity...
			if c.Cost()-c.PinnedCost() > capacity {
				return false
			}
			// ...and if nothing is pinned past capacity, total fits too.
			if c.PinnedCost() <= capacity && c.Cost() > capacity+c.PinnedCost() {
				return false
			}
			// Invariant: every pinned key is still resident.
			for pk := range pinned {
				if !c.Contains(pk) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitsPredictsPut: on a seeded script of inserts, updates that
// grow and shrink, pinned inserts and promotions, deletes and the
// evictions they force, Admits answers at every step what the Put that
// follows it returns, and changes nothing itself. Both must agree with
// the rule read off the entries: a pinned put, or any put to a pinned
// entry, is stored; an unpinned one is stored exactly when it fits
// beside every other pinned entry, since everything else can be evicted.
func TestAdmitsPredictsPut(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var updates, promotions, refusals int
	var evictions uint64
	for trial := 0; trial < 40; trial++ {
		c := New[int, int](int64(8 + rng.Intn(40)))
		for step := 0; step < 300; step++ {
			k := rng.Intn(16)
			if rng.Intn(8) == 0 {
				c.Delete(k)
				continue
			}
			cost := int64(rng.Intn(14))
			pinned := rng.Intn(10) == 0
			e, resident := c.entries[k]
			switch {
			case resident && pinned && !e.pinned:
				promotions++
			case resident:
				updates++
			}
			fits := pinned || resident && e.pinned
			if !fits {
				floor := cost
				for pk, pe := range c.entries {
					if pe.pinned && pk != k {
						floor += pe.cost
					}
				}
				fits = floor <= c.Capacity()
			}
			n, total, order := c.Len(), c.Cost(), c.Keys()
			want := c.Admits(k, cost, pinned)
			if want != fits {
				t.Fatalf("trial %d step %d: Admits(%d, cost %d, pinned %v) = %v, want %v", trial, step, k, cost, pinned, want, fits)
			}
			if c.Len() != n || c.Cost() != total || !reflect.DeepEqual(c.Keys(), order) {
				t.Fatalf("trial %d step %d: Admits changed the cache", trial, step)
			}
			if got := c.Put(k, step, cost, pinned); got != want {
				t.Fatalf("trial %d step %d: Admits(%d, cost %d, pinned %v) = %v, Put = %v (capacity %d, cost %d, pinned cost %d)",
					trial, step, k, cost, pinned, want, got, c.Capacity(), total, c.PinnedCost())
			}
			if v, ok := c.Peek(k); want && (!ok || v != step) {
				t.Fatalf("trial %d step %d: an admitted Put is not resident", trial, step)
			}
			if !want {
				refusals++
				if c.Len() != n || c.Cost() != total || !reflect.DeepEqual(c.Keys(), order) {
					t.Fatalf("trial %d step %d: a refused Put changed the cache", trial, step)
				}
			}
		}
		evictions += c.Evictions()
	}
	if updates == 0 || promotions == 0 || refusals == 0 || evictions == 0 {
		t.Fatalf("script too tame: %d updates, %d promotions, %d refusals, %d evictions", updates, promotions, refusals, evictions)
	}
	t.Logf("%d updates, %d promotions, %d refusals, %d evictions", updates, promotions, refusals, evictions)
}

func BenchmarkPutGet(b *testing.B) {
	c := New[int, int](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Put(i&2047, i, 1, false)
		c.Get((i - 512) & 2047)
	}
}
