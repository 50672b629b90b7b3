package setcover

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rnb/internal/bitset"
)

func sets(idx ...[]int) []*bitset.Set {
	out := make([]*bitset.Set, len(idx))
	for i, s := range idx {
		out[i] = bitset.FromIndices(s...)
	}
	return out
}

func coveredBy(universe *bitset.Set, ss []*bitset.Set, picked []int) int {
	u := bitset.New(0)
	for _, p := range picked {
		u.UnionWith(ss[p])
	}
	u.IntersectWith(universe)
	return u.Count()
}

func TestGreedySimple(t *testing.T) {
	universe := bitset.FromIndices(0, 1, 2, 3, 4)
	ss := sets([]int{0, 1, 2}, []int{3}, []int{4}, []int{3, 4})
	res := Greedy(universe, ss)
	if res.Covered != 5 {
		t.Fatalf("Covered = %d, want 5", res.Covered)
	}
	if want := []int{0, 3}; !reflect.DeepEqual(res.Picked, want) {
		t.Fatalf("Picked = %v, want %v", res.Picked, want)
	}
}

func TestGreedyTieBreaksLowestIndex(t *testing.T) {
	universe := bitset.FromIndices(0, 1)
	ss := sets([]int{0, 1}, []int{0, 1})
	res := Greedy(universe, ss)
	if want := []int{0}; !reflect.DeepEqual(res.Picked, want) {
		t.Fatalf("Picked = %v, want %v", res.Picked, want)
	}
}

func TestGreedyUncoverable(t *testing.T) {
	universe := bitset.FromIndices(0, 1, 9)
	ss := sets([]int{0}, []int{1})
	res := Greedy(universe, ss)
	if res.Covered != 2 || len(res.Picked) != 2 {
		t.Fatalf("got %+v, want 2 covered with 2 picks", res)
	}
}

func TestGreedyEmptyUniverse(t *testing.T) {
	res := Greedy(bitset.New(0), sets([]int{1}))
	if res.Covered != 0 || len(res.Picked) != 0 {
		t.Fatalf("empty universe: %+v", res)
	}
}

func TestGreedyIgnoresOutOfUniverseElements(t *testing.T) {
	// Sets may contain items outside the universe (a server holds
	// replicas of items not in this request); those must not count.
	universe := bitset.FromIndices(0, 1)
	ss := sets([]int{5, 6, 7, 8, 0}, []int{0, 1})
	res := Greedy(universe, ss)
	if want := []int{1}; !reflect.DeepEqual(res.Picked, want) {
		t.Fatalf("Picked = %v, want %v (gains must be counted within universe)", res.Picked, want)
	}
}

func TestGreedyPartialStopsEarly(t *testing.T) {
	universe := bitset.FromIndices(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	ss := sets(
		[]int{0, 1, 2, 3, 4},
		[]int{5, 6, 7},
		[]int{8},
		[]int{9},
	)
	res := GreedyPartial(universe, ss, 8)
	if res.Covered < 8 {
		t.Fatalf("Covered = %d, want >= 8", res.Covered)
	}
	if len(res.Picked) != 2 {
		t.Fatalf("Picked = %v, want exactly 2 sets for target 8", res.Picked)
	}
}

func TestGreedyPartialTargets(t *testing.T) {
	universe := bitset.FromIndices(0, 1, 2)
	ss := sets([]int{0}, []int{1}, []int{2})
	if res := GreedyPartial(universe, ss, 0); len(res.Picked) != 0 {
		t.Fatalf("target 0 picked %v", res.Picked)
	}
	if res := GreedyPartial(universe, ss, -3); len(res.Picked) != 0 {
		t.Fatalf("negative target picked %v", res.Picked)
	}
	if res := GreedyPartial(universe, ss, 99); res.Covered != 3 {
		t.Fatalf("oversized target covered %d, want clamp to 3", res.Covered)
	}
}

func TestGreedyBudget(t *testing.T) {
	universe := bitset.FromIndices(0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	ss := sets(
		[]int{0, 1, 2, 3},
		[]int{4, 5, 6},
		[]int{7, 8},
		[]int{9},
	)
	for budget := 0; budget <= 5; budget++ {
		res := GreedyBudget(universe, ss, budget)
		wantPicks := budget
		if wantPicks > 4 {
			wantPicks = 4
		}
		if len(res.Picked) != wantPicks {
			t.Fatalf("budget %d: picked %d sets", budget, len(res.Picked))
		}
		if budget >= 1 && res.Picked[0] != 0 {
			t.Fatalf("budget %d: first pick %d, want the largest set", budget, res.Picked[0])
		}
	}
	// Coverage is monotone in budget.
	prev := -1
	for budget := 1; budget <= 4; budget++ {
		res := GreedyBudget(universe, ss, budget)
		if res.Covered <= prev {
			t.Fatalf("coverage not increasing: %d at budget %d", res.Covered, budget)
		}
		prev = res.Covered
	}
	// Enough budget covers everything.
	if res := GreedyBudget(universe, ss, 10); res.Covered != 10 {
		t.Fatalf("full budget covered %d", res.Covered)
	}
}

func TestGreedyBudgetStopsWhenNothingGains(t *testing.T) {
	universe := bitset.FromIndices(0)
	ss := sets([]int{0}, []int{0})
	res := GreedyBudget(universe, ss, 5)
	if len(res.Picked) != 1 {
		t.Fatalf("picked %v; extra picks add no coverage", res.Picked)
	}
}

func TestExactSimple(t *testing.T) {
	// Greedy is suboptimal here: greedy picks the big set then needs two
	// more; optimal is the two medium sets.
	universe := bitset.FromIndices(0, 1, 2, 3, 4, 5)
	ss := sets(
		[]int{0, 1, 2, 3}, // greedy trap
		[]int{0, 1, 2},
		[]int{3, 4, 5},
	)
	res, ok := Exact(universe, ss, 0)
	if !ok {
		t.Fatal("Exact reported uncoverable")
	}
	if len(res.Picked) != 2 {
		t.Fatalf("Exact picked %v, want an optimal 2-cover", res.Picked)
	}
	if coveredBy(universe, ss, res.Picked) != 6 {
		t.Fatal("Exact result does not cover universe")
	}
}

func TestExactUncoverable(t *testing.T) {
	if _, ok := Exact(bitset.FromIndices(0, 7), sets([]int{0}), 0); ok {
		t.Fatal("Exact covered the uncoverable")
	}
}

func TestExactRespectsMaxSets(t *testing.T) {
	universe := bitset.FromIndices(0, 1, 2)
	ss := sets([]int{0}, []int{1}, []int{2})
	if _, ok := Exact(universe, ss, 2); ok {
		t.Fatal("Exact found a 2-cover that cannot exist")
	}
	if res, ok := Exact(universe, ss, 3); !ok || len(res.Picked) != 3 {
		t.Fatalf("Exact within bound failed: %+v ok=%v", res, ok)
	}
}

func TestExactEmptyUniverse(t *testing.T) {
	res, ok := Exact(bitset.New(0), nil, 0)
	if !ok || len(res.Picked) != 0 {
		t.Fatalf("empty universe: %+v ok=%v", res, ok)
	}
}

func TestGreedyWithinLnBoundOfExact(t *testing.T) {
	// The greedy approximation guarantee: |greedy| <= H(d) * |opt| where
	// d is the largest set size. On random small instances we check the
	// much looser bound |greedy| <= ln(d)+1 times optimum.
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		universeSize := 6 + r.Intn(10)
		universe := bitset.New(universeSize)
		for i := 0; i < universeSize; i++ {
			universe.Set(i)
		}
		nSets := 4 + r.Intn(6)
		ss := make([]*bitset.Set, nSets)
		union := bitset.New(universeSize)
		for i := range ss {
			ss[i] = bitset.New(universeSize)
			for j := 0; j < universeSize; j++ {
				if r.Intn(3) == 0 {
					ss[i].Set(j)
				}
			}
			union.UnionWith(ss[i])
		}
		if !universe.SubsetOf(union) {
			continue // uncoverable instance; skip
		}
		g := Greedy(universe, ss)
		e, ok := Exact(universe, ss, 0)
		if !ok {
			t.Fatalf("trial %d: exact failed on coverable instance", trial)
		}
		if len(e.Picked) > len(g.Picked) {
			t.Fatalf("trial %d: exact (%d) worse than greedy (%d)",
				trial, len(e.Picked), len(g.Picked))
		}
		// H(16) < 3.4; be generous to keep the test robust.
		if float64(len(g.Picked)) > 3.4*float64(len(e.Picked)) {
			t.Fatalf("trial %d: greedy %d vs optimal %d exceeds approximation bound",
				trial, len(g.Picked), len(e.Picked))
		}
	}
}

func TestQuickGreedyCoverageIsConsistent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		universe := bitset.New(40)
		for i := 0; i < 40; i++ {
			if r.Intn(2) == 0 {
				universe.Set(i)
			}
		}
		ss := make([]*bitset.Set, 6)
		for i := range ss {
			ss[i] = bitset.New(40)
			for j := 0; j < 40; j++ {
				if r.Intn(4) == 0 {
					ss[i].Set(j)
				}
			}
		}
		res := Greedy(universe, ss)
		// Reported coverage must equal recomputed coverage, and picks
		// must be unique.
		seen := map[int]bool{}
		for _, p := range res.Picked {
			if seen[p] {
				return false
			}
			seen[p] = true
		}
		return res.Covered == coveredBy(universe, ss, res.Picked)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPartialNeverOverpicks(t *testing.T) {
	// Removing the last pick must drop coverage below target — i.e. the
	// partial planner never picks a redundant final server.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		universe := bitset.New(30)
		for i := 0; i < 30; i++ {
			universe.Set(i)
		}
		ss := make([]*bitset.Set, 8)
		for i := range ss {
			ss[i] = bitset.New(30)
			for j := 0; j < 30; j++ {
				if r.Intn(3) == 0 {
					ss[i].Set(j)
				}
			}
		}
		target := 1 + r.Intn(30)
		res := GreedyPartial(universe, ss, target)
		if res.Covered < target {
			return true // uncoverable to target; fine
		}
		if len(res.Picked) == 0 {
			return target <= 0
		}
		short := res.Picked[:len(res.Picked)-1]
		return coveredBy(universe, ss, short) < target
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randomInstance(r *rand.Rand, universeSize, nSets int, density int) (*bitset.Set, []*bitset.Set) {
	universe := bitset.New(universeSize)
	for i := 0; i < universeSize; i++ {
		universe.Set(i)
	}
	ss := make([]*bitset.Set, nSets)
	for i := range ss {
		ss[i] = bitset.New(universeSize)
		for j := 0; j < universeSize; j++ {
			if r.Intn(density) == 0 {
				ss[i].Set(j)
			}
		}
	}
	return universe, ss
}

func BenchmarkGreedy100x16(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	universe, ss := randomInstance(r, 100, 16, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Greedy(universe, ss)
	}
}

func BenchmarkGreedy500x64(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	universe, ss := randomInstance(r, 500, 64, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Greedy(universe, ss)
	}
}
