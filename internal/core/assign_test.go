package core

import (
	"math/rand"
	"testing"
)

func maxLoadOf(assign []int) map[int]int {
	load := make(map[int]int)
	for _, s := range assign {
		if s >= 0 {
			load[s]++
		}
	}
	return load
}

func TestBalancedAssignSpreads(t *testing.T) {
	// Four items all sharing servers {0,1}: optimum is 2 per server;
	// greedy cover would read all four from one.
	cands := [][]int{{0, 1}, {0, 1}, {1, 0}, {1, 0}}
	assign, maxLoad := BalancedAssign(cands)
	if maxLoad != 2 {
		t.Fatalf("maxLoad = %d, want 2 (assign %v)", maxLoad, assign)
	}
	for i, s := range assign {
		if s < 0 {
			t.Fatalf("item %d unassigned", i)
		}
	}
	for s, l := range maxLoadOf(assign) {
		if l > 2 {
			t.Fatalf("server %d overloaded: %d", s, l)
		}
	}
}

func TestBalancedAssignNeedsAugmenting(t *testing.T) {
	// t=1 is feasible only by re-homing: item0 {0}, item1 {0,1},
	// item2 {1,2}. Greedy first-fit would stack 0 and 1 on server 0.
	cands := [][]int{{0}, {0, 1}, {1, 2}}
	assign, maxLoad := BalancedAssign(cands)
	if maxLoad != 1 {
		t.Fatalf("maxLoad = %d, want 1 (assign %v)", maxLoad, assign)
	}
	if assign[0] != 0 || assign[1] != 1 || assign[2] != 2 {
		t.Fatalf("assign = %v, want [0 1 2]", assign)
	}
}

func TestBalancedAssignUnassignable(t *testing.T) {
	cands := [][]int{{}, {3}, {}}
	assign, maxLoad := BalancedAssign(cands)
	if assign[0] != -1 || assign[2] != -1 || assign[1] != 3 {
		t.Fatalf("assign = %v", assign)
	}
	if maxLoad != 1 {
		t.Fatalf("maxLoad = %d, want 1", maxLoad)
	}
	empty, maxLoad := BalancedAssign([][]int{{}, {}})
	if empty[0] != -1 || empty[1] != -1 || maxLoad != 0 {
		t.Fatalf("all-empty: assign %v maxLoad %d", empty, maxLoad)
	}
}

func TestBalancedAssignDeterministic(t *testing.T) {
	cands := [][]int{{0, 1, 2}, {1, 2}, {0, 2}, {2, 0}, {1, 0}}
	a, la := BalancedAssign(cands)
	b, lb := BalancedAssign(cands)
	if la != lb {
		t.Fatalf("maxLoad differs: %d vs %d", la, lb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("assignment not deterministic: %v vs %v", a, b)
		}
	}
}

// TestBalancedAssignOptimalVsBruteForce cross-checks the solver
// against exhaustive enumeration on random small instances.
func TestBalancedAssignOptimalVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6) // items
		m := 2 + rng.Intn(4) // servers
		cands := make([][]int, n)
		for i := range cands {
			r := 1 + rng.Intn(m)
			perm := rng.Perm(m)
			cands[i] = perm[:r]
		}
		_, got := BalancedAssign(cands)

		best := n + 1
		var walk func(i int, load []int, cur int)
		walk = func(i int, load []int, cur int) {
			if cur >= best {
				return
			}
			if i == n {
				best = cur
				return
			}
			for _, s := range cands[i] {
				load[s]++
				next := cur
				if load[s] > next {
					next = load[s]
				}
				walk(i+1, load, next)
				load[s]--
			}
		}
		walk(0, make([]int, m), 0)
		if got != best {
			t.Fatalf("trial %d: solver maxLoad %d, brute force %d (cands %v)", trial, got, best, cands)
		}
	}
}

func TestBalancedAssignConsolidates(t *testing.T) {
	// Eight items on overlapping pairs; optimal t=2 needs >= 4 servers'
	// worth of capacity, and consolidation must not leave 8 singleton
	// transactions.
	cands := [][]int{
		{0, 1}, {0, 1}, {0, 2}, {0, 2},
		{1, 2}, {1, 2}, {0, 3}, {2, 3},
	}
	assign, maxLoad := BalancedAssign(cands)
	used := make(map[int]bool)
	for _, s := range assign {
		used[s] = true
	}
	if want := (8 + maxLoad - 1) / maxLoad; len(used) > 8 || len(used) < want {
		t.Fatalf("used %d servers, floor %d (assign %v)", len(used), want, assign)
	}
	for _, l := range maxLoadOf(assign) {
		if l > maxLoad {
			t.Fatalf("consolidation broke the bound: %v (t=%d)", assign, maxLoad)
		}
	}
}

func TestPlannerHintBalanceLoad(t *testing.T) {
	// All requested items share one replica pair {s0, s1} under a rigged
	// placement: greedy cover reads everything from one server, the
	// balance hint splits evenly.
	p := rigged{servers: 4, sets: map[uint64][]int{
		1: {0, 1}, 2: {1, 0}, 3: {0, 1}, 4: {1, 0}, 5: {0, 1}, 6: {1, 0},
	}}
	greedy := NewPlanner(p, Options{})
	balanced := NewPlanner(p, Options{Hint: HintBalanceLoad})
	items := []uint64{1, 2, 3, 4, 5, 6}

	gp, err := greedy.Build(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := balanced.Build(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	gMax, bMax := 0, 0
	for _, txn := range gp.Transactions {
		if len(txn.Primary) > gMax {
			gMax = len(txn.Primary)
		}
	}
	for _, txn := range bp.Transactions {
		if len(txn.Primary) > bMax {
			bMax = len(txn.Primary)
		}
	}
	if gMax != 6 {
		t.Fatalf("greedy max per-server items = %d, want 6", gMax)
	}
	if bMax != 3 {
		t.Fatalf("balanced max per-server items = %d, want 3", bMax)
	}
	if bp.Assigned != 6 {
		t.Fatalf("balanced assigned %d/6", bp.Assigned)
	}
	// Equal requests must still yield equal plans.
	bp2, _ := balanced.Build(items, 0)
	if len(bp2.Transactions) != len(bp.Transactions) {
		t.Fatal("balanced plan not deterministic")
	}
	for i := range bp.ItemServer {
		if bp.ItemServer[i] != bp2.ItemServer[i] {
			t.Fatal("balanced assignment not deterministic")
		}
	}
}

func TestPlannerHintBalanceAvoids(t *testing.T) {
	p := rigged{servers: 3, sets: map[uint64][]int{
		1: {0, 1}, 2: {0, 2}, 3: {0, 1},
	}}
	planner := NewPlanner(p, Options{Hint: HintBalanceLoad})
	plan, err := planner.BuildInto(new(Plan), []uint64{1, 2, 3}, 0, 0, func(s int) bool { return s == 0 })
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range plan.ItemServer {
		if s == 0 {
			t.Fatalf("item %d assigned to avoided server 0", i)
		}
		if s == -1 {
			t.Fatalf("item %d unassigned despite live replica", i)
		}
	}
}

func TestPlannerHintBalanceLimitFallsBack(t *testing.T) {
	// LIMIT plans take the cover path: the plan must stop at the target
	// exactly as the default hint does.
	p := rigged{servers: 4, sets: map[uint64][]int{
		1: {0, 1}, 2: {1, 2}, 3: {2, 3}, 4: {3, 0},
	}}
	planner := NewPlanner(p, Options{Hint: HintBalanceLoad})
	plan, err := planner.Build([]uint64{1, 2, 3, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Assigned < 2 || plan.Assigned == 4 && len(plan.Transactions) > 2 {
		t.Fatalf("LIMIT fallback mis-planned: assigned %d in %d txns",
			plan.Assigned, len(plan.Transactions))
	}
}

// TestPlannerHintBalanceHitchhike checks hitchhiking composes with the
// balanced path.
func TestPlannerHintBalanceHitchhike(t *testing.T) {
	p := rigged{servers: 2, sets: map[uint64][]int{
		1: {0, 1}, 2: {1, 0},
	}}
	planner := NewPlanner(p, Options{Hint: HintBalanceLoad, Hitchhike: true})
	plan, err := planner.Build([]uint64{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	hh := 0
	for _, txn := range plan.Transactions {
		hh += len(txn.Hitchhikers)
	}
	if hh == 0 {
		t.Fatal("no hitchhikers on the balanced path")
	}
}

// rigged is a test placement with explicit replica sets.
type rigged struct {
	servers int
	sets    map[uint64][]int
}

func (r rigged) Replicas(item uint64, buf []int) []int {
	return append(buf[:0], r.sets[item]...)
}
func (r rigged) NumServers() int  { return r.servers }
func (r rigged) NumReplicas() int { return 2 }
