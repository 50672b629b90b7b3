//go:build !race

// Allocation-budget regression gates for the planner hot path (run via
// `make bench-alloc`; excluded under -race because the race runtime's
// shadow allocations distort testing.AllocsPerRun).
package core

import (
	"testing"

	"rnb/internal/hashring"
)

// TestAllocBudgetPlannerBuild bounds steady-state Build allocations:
// with the pooled buildScratch, the only memory a fresh Build may
// allocate is the plan's own — ItemServer, Replicas, the replica slab,
// the Transactions slice and the primary slab — independent of the
// transaction count (the Plan itself stays on the caller's stack when
// it does not escape). The per-item maps, bitsets, server tallies and
// the set cover's working set all come from the scratch pool.
func TestAllocBudgetPlannerBuild(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(16, 3, 1), Options{})
	items := make([]uint64, 16)
	for i := range items {
		items[i] = uint64(i*2654435761 + 97)
	}
	// Warm the scratch pool outside the measured window.
	if _, err := p.Build(items, 0); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		plan, err := p.Build(items, 0)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Assigned != len(items) {
			t.Fatalf("assigned %d/%d", plan.Assigned, len(items))
		}
	})
	// Measured 5 allocs/op for a 16-item build, the five slices above.
	// It fails if per-item or per-transaction allocation creeps back in.
	const budget = 5
	t.Logf("planner build: %.1f allocs/op (budget %d)", got, budget)
	if got > budget {
		t.Errorf("planner build: %.1f allocs/op, budget %d", got, budget)
	}
}

// TestAllocBudgetPlannerBuildInto: building into a reused Plan — the
// client's per-request path, with its options: hitchhikers aboard,
// distinguished singles redirected — allocates nothing in steady state.
func TestAllocBudgetPlannerBuildInto(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(16, 3, 1), Options{Hitchhike: true, DistinguishedSingles: true})
	items := make([]uint64, 16)
	for i := range items {
		items[i] = uint64(i*2654435761 + 97)
	}
	plan := new(Plan)
	// The first build grows the plan and warms the scratch pool.
	if _, err := p.BuildInto(plan, items, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := p.BuildInto(plan, items, 0, 0, nil); err != nil || plan.Assigned != len(items) {
			t.Fatalf("assigned %d/%d, err %v", plan.Assigned, len(items), err)
		}
	})
	t.Logf("planner build into a reused plan: %.1f allocs/op (budget 0)", got)
	if got > 0 {
		t.Errorf("planner build into a reused plan: %.1f allocs/op, budget 0", got)
	}
}
