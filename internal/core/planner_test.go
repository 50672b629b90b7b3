package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rnb/internal/bitset"
	"rnb/internal/hashring"
)

// fixedPlacement is a test double mapping each item to a preset replica
// list.
type fixedPlacement struct {
	servers  int
	replicas int
	sets     map[uint64][]int
}

func (f *fixedPlacement) Replicas(item uint64, buf []int) []int {
	return append(buf[:0], f.sets[item]...)
}
func (f *fixedPlacement) NumServers() int  { return f.servers }
func (f *fixedPlacement) NumReplicas() int { return f.replicas }

func fullCover(plan *Plan, items []uint64) bool {
	got := map[uint64]bool{}
	for _, t := range plan.Transactions {
		for _, it := range t.Primary {
			got[it] = true
		}
	}
	for _, it := range items {
		if !got[it] {
			return false
		}
	}
	return true
}

func TestBuildCoversAllItems(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(16, 3, 1), Options{})
	items := []uint64{10, 20, 30, 40, 50, 60, 70, 80}
	plan, err := p.Build(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !fullCover(plan, items) {
		t.Fatal("plan does not cover all items")
	}
	if plan.Assigned != len(items) {
		t.Fatalf("Assigned = %d, want %d", plan.Assigned, len(items))
	}
	for i, s := range plan.ItemServer {
		if s == -1 {
			t.Fatalf("item %d unassigned", i)
		}
		// Assigned server must be one of the item's replicas.
		found := false
		for _, r := range plan.Replicas[i] {
			if r == s {
				found = true
			}
		}
		if !found {
			t.Fatalf("item %d assigned to non-replica server %d (replicas %v)",
				i, s, plan.Replicas[i])
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(4, 2, 1), Options{})
	plan, err := p.Build(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumTransactions() != 0 {
		t.Fatal("empty request produced transactions")
	}
}

func TestBuildRejectsDuplicates(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(4, 2, 1), Options{})
	if _, err := p.Build([]uint64{1, 2, 1}, 0); err == nil {
		t.Fatal("duplicate items accepted")
	}
}

func TestBundlingBeatsSingleReplica(t *testing.T) {
	// With replication, the expected number of transactions must be at
	// most the single-replica count, and in aggregate strictly lower.
	single := NewPlanner(hashring.NewMultiHashPlacement(16, 1, 1), Options{})
	multi := NewPlanner(hashring.NewMultiHashPlacement(16, 4, 1), Options{})
	rng := rand.New(rand.NewSource(5))
	var sumSingle, sumMulti int
	for trial := 0; trial < 200; trial++ {
		items := make([]uint64, 0, 20)
		seen := map[uint64]bool{}
		for len(items) < 20 {
			it := uint64(rng.Intn(10000))
			if !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
		ps, err := single.Build(items, 0)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := multi.Build(items, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !fullCover(pm, items) {
			t.Fatal("multi plan incomplete")
		}
		if pm.NumTransactions() > ps.NumTransactions() {
			t.Fatalf("trial %d: replicated plan uses MORE transactions (%d > %d)",
				trial, pm.NumTransactions(), ps.NumTransactions())
		}
		sumSingle += ps.NumTransactions()
		sumMulti += pm.NumTransactions()
	}
	if float64(sumMulti) > 0.8*float64(sumSingle) {
		t.Fatalf("4 replicas only reduced transactions %d -> %d; expected a big win",
			sumSingle, sumMulti)
	}
}

func TestFig7Scenario(t *testing.T) {
	// The paper's fig. 7: items 1,2 both live on server A (and
	// elsewhere); requests {1,2,3} and {1,2,4} must both fetch 1 and 2
	// from the same server, leaving the other replicas cold.
	fp := &fixedPlacement{servers: 3, replicas: 2, sets: map[uint64][]int{
		1: {0, 2}, // A, C
		2: {0, 1}, // A, B
		3: {1, 2},
		4: {2, 1},
	}}
	p := NewPlanner(fp, Options{})
	planI, err := p.Build([]uint64{1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	planII, err := p.Build([]uint64{1, 2, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if planI.ItemServer[0] != 0 || planI.ItemServer[1] != 0 {
		t.Fatalf("request I: items 1,2 not bundled on server A: %v", planI.ItemServer)
	}
	if planII.ItemServer[0] != 0 || planII.ItemServer[1] != 0 {
		t.Fatalf("request II: items 1,2 not bundled on server A: %v", planII.ItemServer)
	}
	// Both plans use exactly 2 transactions (A + one other).
	if planI.NumTransactions() != 2 || planII.NumTransactions() != 2 {
		t.Fatalf("transactions: %d and %d, want 2 and 2",
			planI.NumTransactions(), planII.NumTransactions())
	}
}

func TestDistinguishedSinglesRedirect(t *testing.T) {
	// Item 5's cover pick would be server 1 (shared with nothing), but
	// as a single-item transaction it must be redirected to its
	// distinguished server 2.
	fp := &fixedPlacement{servers: 4, replicas: 2, sets: map[uint64][]int{
		1: {0, 3},
		2: {0, 3},
		5: {2, 1},
	}}
	p := NewPlanner(fp, Options{DistinguishedSingles: true})
	plan, err := p.Build([]uint64{1, 2, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ItemServer[2] != 2 {
		t.Fatalf("single item not redirected to distinguished server: %v", plan.ItemServer)
	}
	if !fullCover(plan, []uint64{1, 2, 5}) {
		t.Fatal("redirect broke coverage")
	}
	// Without the option, the item stays wherever greedy put it.
	p2 := NewPlanner(fp, Options{DistinguishedSingles: false})
	plan2, _ := p2.Build([]uint64{1, 2, 5}, 0)
	if !fullCover(plan2, []uint64{1, 2, 5}) {
		t.Fatal("plain plan incomplete")
	}
}

// TestDistinguishedSinglesAvoidFlipsMidBuild: avoid reads live breaker
// state, so it can reject a server while candidates are collected and
// accept it by the time singles are redirected. The redirect used to
// index its server table with that non-candidate id and panic (seen as a
// rare crash in the resize e2e suite).
func TestDistinguishedSinglesAvoidFlipsMidBuild(t *testing.T) {
	const victim = 999 // beyond any table a pooled scratch has grown to
	fp := &fixedPlacement{servers: 1000, replicas: 2, sets: map[uint64][]int{1: {victim, 0}}}
	p := NewPlanner(fp, Options{DistinguishedSingles: true})
	calls := 0
	avoid := func(s int) bool {
		calls++
		return calls <= 2 && s == victim // the candidate pass asks once per replica
	}
	plan, err := p.BuildInto(new(Plan), []uint64{1}, 0, 0, avoid)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Transactions) != 1 || plan.Transactions[0].Server != 0 || !fullCover(plan, []uint64{1}) {
		t.Fatalf("plan %+v, want the single left on server 0", plan.Transactions)
	}
}

func TestDistinguishedSinglesMergesIntoExistingTxn(t *testing.T) {
	// Item 5 would be fetched alone from server 1; its distinguished
	// server 0 already has a planned transaction, so it must merge.
	fp := &fixedPlacement{servers: 3, replicas: 2, sets: map[uint64][]int{
		1: {0, 2},
		2: {0, 2},
		5: {0, 1},
	}}
	p := NewPlanner(fp, Options{DistinguishedSingles: true})
	plan, err := p.Build([]uint64{1, 2, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumTransactions() != 1 {
		t.Fatalf("want 1 merged transaction, got %d: %+v",
			plan.NumTransactions(), plan.Transactions)
	}
	if plan.Transactions[0].Server != 0 {
		t.Fatalf("merged onto wrong server %d", plan.Transactions[0].Server)
	}
}

func TestHitchhikers(t *testing.T) {
	// Greedy picks server 0 for items 1,2,3 and server 1 for item 4.
	// Item 3 also has a replica on server 1, so it must hitchhike on the
	// server-1 transaction.
	fp := &fixedPlacement{servers: 2, replicas: 2, sets: map[uint64][]int{
		1: {0},
		2: {0},
		3: {0, 1},
		4: {1},
	}}
	p := NewPlanner(fp, Options{Hitchhike: true})
	plan, err := p.Build([]uint64{1, 2, 3, 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var hh []uint64
	for _, txn := range plan.Transactions {
		if txn.Server == 1 {
			hh = txn.Hitchhikers
		}
	}
	if len(hh) != 1 || hh[0] != 3 {
		t.Fatalf("hitchhikers on server 1 = %v, want [3]", hh)
	}
	// Transaction size includes hitchhikers.
	for _, txn := range plan.Transactions {
		if txn.Size() != len(txn.Primary)+len(txn.Hitchhikers) {
			t.Fatal("Size() wrong")
		}
	}
}

func TestNoHitchhikersWhenDisabled(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(8, 3, 1), Options{Hitchhike: false})
	plan, err := p.Build([]uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, txn := range plan.Transactions {
		if len(txn.Hitchhikers) != 0 {
			t.Fatal("hitchhikers present though disabled")
		}
	}
}

func TestLimitPlanStopsEarly(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(32, 1, 1), Options{})
	items := make([]uint64, 40)
	for i := range items {
		items[i] = uint64(i * 977)
	}
	full, err := p.Build(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	half, err := p.Build(items, 20)
	if err != nil {
		t.Fatal(err)
	}
	if half.Assigned < 20 {
		t.Fatalf("limit plan assigned %d < target 20", half.Assigned)
	}
	if half.NumTransactions() >= full.NumTransactions() {
		t.Fatalf("limit plan no cheaper: %d vs %d txns",
			half.NumTransactions(), full.NumTransactions())
	}
	// Unassigned items must be marked -1.
	unassigned := 0
	for _, s := range half.ItemServer {
		if s == -1 {
			unassigned++
		}
	}
	if unassigned != len(items)-half.Assigned {
		t.Fatalf("unassigned count %d inconsistent with Assigned %d",
			unassigned, half.Assigned)
	}
}

func TestLimitWithReplicationBeatsWithout(t *testing.T) {
	// §III-F: replication gives big additional gains for LIMIT queries.
	single := NewPlanner(hashring.NewMultiHashPlacement(32, 1, 1), Options{})
	multi := NewPlanner(hashring.NewMultiHashPlacement(32, 4, 1), Options{})
	rng := rand.New(rand.NewSource(8))
	var sumS, sumM int
	for trial := 0; trial < 100; trial++ {
		seen := map[uint64]bool{}
		items := make([]uint64, 0, 50)
		for len(items) < 50 {
			it := uint64(rng.Intn(100000))
			if !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
		ps, _ := single.Build(items, 45)
		pm, _ := multi.Build(items, 45)
		sumS += ps.NumTransactions()
		sumM += pm.NumTransactions()
	}
	if float64(sumM) > 0.7*float64(sumS) {
		t.Fatalf("LIMIT with replication %d vs without %d: expected a large win", sumM, sumS)
	}
}

func TestBalanceTieBreakSpreadsLoad(t *testing.T) {
	// With full replication (replicas == servers) every server covers
	// every request, so greedy always has a pure tie. Low-id tie-break
	// puts everything on server 0; balanced tie-break spreads.
	const servers = 8
	run := func(balance bool) []int {
		p := NewPlanner(hashring.NewMultiHashPlacement(servers, servers, 1),
			Options{BalanceTieBreak: balance})
		counts := make([]int, servers)
		rng := rand.New(rand.NewSource(77))
		for trial := 0; trial < 300; trial++ {
			items := make([]uint64, 0, 10)
			seen := map[uint64]bool{}
			for len(items) < 10 {
				it := uint64(rng.Intn(100000))
				if !seen[it] {
					seen[it] = true
					items = append(items, it)
				}
			}
			plan, err := p.Build(items, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, txn := range plan.Transactions {
				counts[txn.Server]++
			}
		}
		return counts
	}
	plain := run(false)
	balanced := run(true)
	if plain[0] != 300 {
		t.Fatalf("premise: low-id tie-break should pick server 0 every time: %v", plain)
	}
	nonzero := 0
	for _, c := range balanced {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero < servers/2 {
		t.Fatalf("balanced tie-break still concentrated: %v", balanced)
	}
}

func TestBalanceTieBreakDeterministic(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(8, 3, 1), Options{BalanceTieBreak: true})
	items := []uint64{10, 20, 30, 40, 50}
	a, err := p.Build(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Build(items, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumTransactions() != b.NumTransactions() {
		t.Fatal("balanced plans not deterministic")
	}
	for i := range a.Transactions {
		if a.Transactions[i].Server != b.Transactions[i].Server {
			t.Fatal("balanced plans not deterministic")
		}
	}
}

func TestBuildAvoiding(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(8, 2, 1), Options{})
	items := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	avoid := func(s int) bool { return s == 0 || s == 1 }
	plan, err := p.BuildInto(new(Plan), items, 0, 0, avoid)
	if err != nil {
		t.Fatal(err)
	}
	for _, txn := range plan.Transactions {
		if avoid(txn.Server) {
			t.Fatalf("plan routed to avoided server %d", txn.Server)
		}
	}
	// Items whose both replicas are avoided must be unassigned; others
	// assigned.
	for i, s := range plan.ItemServer {
		bothDown := true
		for _, r := range plan.Replicas[i] {
			if !avoid(r) {
				bothDown = false
			}
		}
		if bothDown && s != -1 {
			t.Fatalf("item %d assigned despite all replicas avoided", i)
		}
		if !bothDown && s == -1 {
			t.Fatalf("item %d unassigned despite live replica", i)
		}
	}
}

func TestActingDistinguished(t *testing.T) {
	replicas := []int{3, 7, 9}
	if s, ok := ActingDistinguished(replicas, nil); !ok || s != 3 {
		t.Fatalf("nil avoid: %d %v", s, ok)
	}
	avoid3 := func(s int) bool { return s == 3 }
	if s, ok := ActingDistinguished(replicas, avoid3); !ok || s != 7 {
		t.Fatalf("avoid 3: %d %v", s, ok)
	}
	all := func(int) bool { return true }
	if _, ok := ActingDistinguished(replicas, all); ok {
		t.Fatal("all avoided should fail")
	}
}

func TestBuildBudget(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(16, 2, 1), Options{Hitchhike: true})
	items := make([]uint64, 40)
	for i := range items {
		items[i] = uint64(i*331 + 7)
	}
	prevAssigned := -1
	for _, budget := range []int{1, 2, 4, 8} {
		plan, err := p.BuildInto(new(Plan), items, 0, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plan.NumTransactions() > budget {
			t.Fatalf("budget %d: %d transactions", budget, plan.NumTransactions())
		}
		if plan.Assigned <= prevAssigned {
			t.Fatalf("budget %d: coverage %d not increasing", budget, plan.Assigned)
		}
		prevAssigned = plan.Assigned
		// Assigned items must map to planned servers.
		for i, s := range plan.ItemServer {
			if s == -1 {
				continue
			}
			found := false
			for _, txn := range plan.Transactions {
				if txn.Server == s {
					found = true
				}
			}
			if !found {
				t.Fatalf("item %d assigned to unplanned server %d", i, s)
			}
		}
	}
}

func TestBuildBudgetWithDistinguishedSinglesKeepsBudget(t *testing.T) {
	// The single-item redirect must not create transactions beyond the
	// budget.
	p := NewPlanner(hashring.NewMultiHashPlacement(16, 2, 3), Options{
		DistinguishedSingles: true,
	})
	items := make([]uint64, 30)
	for i := range items {
		items[i] = uint64(i*977 + 13)
	}
	for _, budget := range []int{1, 2, 3} {
		plan, err := p.BuildInto(new(Plan), items, 0, budget, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plan.NumTransactions() > budget {
			t.Fatalf("budget %d busted: %d transactions", budget, plan.NumTransactions())
		}
	}
}

func TestSecondRoundGroupsByDistinguished(t *testing.T) {
	items := []uint64{1, 2, 3, 4}
	dist := []int{0, 1, 0, 1}
	txns := new(Round2).Group(items, dist)
	if len(txns) != 2 {
		t.Fatalf("got %d transactions, want 2", len(txns))
	}
	byServer := map[int][]uint64{}
	for _, txn := range txns {
		byServer[txn.Server] = txn.Primary
	}
	if len(byServer[0]) != 2 || len(byServer[1]) != 2 {
		t.Fatalf("grouping wrong: %v", byServer)
	}
}

func TestSecondRoundEmpty(t *testing.T) {
	if got := new(Round2).Group(nil, nil); len(got) != 0 {
		t.Fatal("empty second round")
	}
}

func TestPlannerAccessors(t *testing.T) {
	pl := hashring.NewMultiHashPlacement(4, 2, 1)
	p := NewPlanner(pl, Options{Hitchhike: true})
	if p.Placement() != hashring.Placement(pl) {
		t.Fatal("Placement accessor")
	}
	if !p.Options().Hitchhike {
		t.Fatal("Options accessor")
	}
}

func TestQuickPlansAlwaysValid(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(12, 3, 9), Options{
		Hitchhike:            true,
		DistinguishedSingles: true,
	})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		seen := map[uint64]bool{}
		items := make([]uint64, 0, n)
		for len(items) < n {
			it := uint64(rng.Intn(100000))
			if !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
		plan, err := p.Build(items, 0)
		if err != nil {
			return false
		}
		if !fullCover(plan, items) {
			return false
		}
		// Each transaction's primaries must belong to servers in the
		// item's replica set, and no server appears twice.
		srv := map[int]bool{}
		for _, txn := range plan.Transactions {
			if srv[txn.Server] {
				return false
			}
			srv[txn.Server] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuild20Items16Servers(b *testing.B) {
	p := NewPlanner(hashring.NewMultiHashPlacement(16, 4, 1), Options{
		Hitchhike: true, DistinguishedSingles: true,
	})
	items := make([]uint64, 20)
	for i := range items {
		items[i] = uint64(i * 7919)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Build(items, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuild100Items64Servers(b *testing.B) {
	p := NewPlanner(hashring.NewMultiHashPlacement(64, 4, 1), Options{})
	items := make([]uint64, 100)
	for i := range items {
		items[i] = uint64(i * 104729)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Build(items, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScratchPoolDropsHubSizedBuilds checks that one hub request does
// not leave its item-indexed tables in the pool for every later small
// build to clear: after a 16 000-item build and a 16-item one, no
// pooled scratch holds a bitset wider than MaxPooledItems.
func TestScratchPoolDropsHubSizedBuilds(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(16, 3, 1), Options{})
	for _, n := range []int{16000, 16} {
		items := make([]uint64, n)
		for i := range items {
			items[i] = uint64(i)*2654435761 + 97
		}
		if plan, err := p.Build(items, 0); err != nil || plan.Assigned != n {
			t.Fatalf("%d-item build: %+v, %v", n, plan, err)
		}
	}
	// bitset.Set does not export its width; the capacity of its word
	// slice is the memory the scratch retains.
	words := func(s *bitset.Set) int { return reflect.ValueOf(s).Elem().FieldByName("words").Cap() }
	// More Gets than there can be pooled scratches; an empty pool hands
	// out fresh ones, which pass trivially.
	for i := 0; i < 64; i++ {
		sc := scratchPool.Get().(*buildScratch)
		for _, set := range append(sc.freelist, &sc.universe) {
			if w := words(set); w > MaxPooledItems/64 {
				t.Fatalf("pooled scratch retains a %d-bit set (limit %d items)", w*64, MaxPooledItems)
			}
		}
	}
}
