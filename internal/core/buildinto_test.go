package core

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"rnb/internal/bitset"
	"rnb/internal/hashring"
	"rnb/internal/setcover"
)

// boostedPlacement hands every fourth item one replica beyond the
// declared level, the way an adaptive boost does, so that a replica
// list overflows its carve of the plan's slab.
type boostedPlacement struct{ hashring.Placement }

func (b boostedPlacement) Replicas(item uint64, buf []int) []int {
	out := b.Placement.Replicas(item, buf)
	if item%4 != 0 {
		return out
	}
	for s := int(item % uint64(b.NumServers())); ; s = (s + 1) % b.NumServers() {
		if !slices.Contains(out, s) {
			return append(out, s)
		}
	}
}

// leastFirstCover is a deliberately anti-greedy Options.cover: it keeps
// picking the set that adds the fewest (but some) uncovered items. Greedy
// cover never leaves a single whose distinguished server is picked as
// well — that server would have had the larger gain — so this is what
// makes singles merge into existing transactions, and into ones an
// earlier redirect emptied.
func leastFirstCover(universe *bitset.Set, sets []*bitset.Set, target int) setcover.Result {
	remaining := universe.Clone()
	var res setcover.Result
	for res.Covered < target {
		pick, gain := -1, 0
		for i, s := range sets {
			if g := remaining.IntersectionCount(s); g > 0 && (pick < 0 || g < gain) {
				pick, gain = i, g
			}
		}
		if pick < 0 {
			break
		}
		res.Picked = append(res.Picked, pick)
		res.Covered += gain
		remaining.DifferenceWith(sets[pick])
	}
	return res
}

// planCase is one seeded planning request: the planner, the items and
// BuildInto's arguments.
type planCase struct {
	p       *Planner
	items   []uint64
	target  int
	budget  int          // > 0: a transaction budget
	down    map[int]bool // non-nil: an avoid filter
	exclude map[int]bool // non-nil: more servers to avoid
}

func (c *planCase) avoid() func(int) bool {
	if c.down == nil {
		return nil
	}
	return func(s int) bool { return c.down[s] }
}

// into plans c into plan.
func (c *planCase) into(plan *Plan) (*Plan, error) {
	avoid := c.avoid()
	if c.exclude != nil {
		avoid = func(s int) bool { return c.exclude[s] || c.down[s] }
	}
	return c.p.BuildInto(plan, c.items, c.target, c.budget, avoid)
}

// planCases generates n seeded requests over every option the planner
// has — hitchhiking and distinguished singles on and off, the balanced
// tie-break, a custom cover and HintBalanceLoad — on three placements, one of which
// overflows its declared replica level; a third of them LIMIT or
// budget requests, a third with servers avoided or excluded.
func planCases(seed int64, n int) []planCase {
	placements := []hashring.Placement{
		hashring.NewMultiHashPlacement(16, 3, 1),
		hashring.NewMultiHashPlacement(6, 3, 7),
		boostedPlacement{hashring.NewMultiHashPlacement(12, 2, 3)},
	}
	options := []Options{
		{},
		{Hitchhike: true},
		{DistinguishedSingles: true},
		{Hitchhike: true, DistinguishedSingles: true},
		{Hitchhike: true, DistinguishedSingles: true, BalanceTieBreak: true},
		{DistinguishedSingles: true, cover: leastFirstCover},
		{Hitchhike: true, DistinguishedSingles: true, cover: leastFirstCover},
		{Hint: HintBalanceLoad},
		{Hint: HintBalanceLoad, Hitchhike: true},
	}
	var planners []*Planner
	for _, pl := range placements {
		for _, o := range options {
			planners = append(planners, NewPlanner(pl, o))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	downSet := func(servers int) map[int]bool {
		down := map[int]bool{}
		for s := 0; s < servers; s++ {
			if rng.Intn(5) == 0 {
				down[s] = true
			}
		}
		return down
	}
	cases := make([]planCase, n)
	for k := range cases {
		c := &cases[k]
		c.p = planners[rng.Intn(len(planners))]
		m := 1 + rng.Intn(40)
		seen := map[uint64]bool{}
		for len(c.items) < m {
			if it := uint64(rng.Intn(5000)); !seen[it] {
				seen[it] = true
				c.items = append(c.items, it)
			}
		}
		servers := c.p.Placement().NumServers()
		switch rng.Intn(6) {
		case 2:
			c.target = 1 + rng.Intn(m)
		case 3:
			c.budget = 1 + rng.Intn(4)
		case 4:
			c.down = downSet(servers)
			if rng.Intn(2) == 0 {
				c.target = 1 + rng.Intn(m)
			}
		case 5:
			c.down, c.exclude = downSet(servers), downSet(servers)
		}
	}
	return cases
}

// samePlan reports whether a and b plan the same fetch, field for field
// (nil and empty slices alike).
func samePlan(a, b *Plan) bool {
	if !slices.Equal(a.Items, b.Items) || !slices.Equal(a.ItemServer, b.ItemServer) ||
		a.Assigned != b.Assigned || len(a.Replicas) != len(b.Replicas) || len(a.Transactions) != len(b.Transactions) {
		return false
	}
	for i := range a.Replicas {
		if !slices.Equal(a.Replicas[i], b.Replicas[i]) {
			return false
		}
	}
	for i, t := range a.Transactions {
		u := b.Transactions[i]
		if t.Server != u.Server || !slices.Equal(t.Primary, u.Primary) || !slices.Equal(t.Hitchhikers, u.Hitchhikers) {
			return false
		}
	}
	return true
}

// planDigest folds a plan into h: every transaction, then every item's
// server and replica list.
func planDigest(h interface{ Write([]byte) (int, error) }, p *Plan) {
	var buf []byte
	put := func(v int) { buf = binary.AppendVarint(buf, int64(v)) }
	put(len(p.Transactions))
	for _, t := range p.Transactions {
		put(t.Server)
		put(len(t.Primary))
		for _, it := range t.Primary {
			put(int(it))
		}
		put(len(t.Hitchhikers))
		for _, it := range t.Hitchhikers {
			put(int(it))
		}
	}
	put(p.Assigned)
	for i := range p.ItemServer {
		put(p.ItemServer[i])
		put(len(p.Replicas[i]))
		for _, s := range p.Replicas[i] {
			put(s)
		}
	}
	h.Write(buf)
}

// plansDigest pins the plans of planCases(1, 10000): the value the
// append-per-item planner (before plans were built into reusable
// memory) produced for the same requests. A change to it is a change to
// what the planner decides.
const plansDigest = 0x597936757e7cfc91

// TestBuildIntoReusedPlanMatchesFresh is the planner's differential
// test: for 10 000 seeded requests, building into one reused Plan —
// dirtied first by a larger request, then by every request before it —
// gives exactly the plan a fresh build does, and the fresh plans are
// the ones the planner has always made (plansDigest).
func TestBuildIntoReusedPlanMatchesFresh(t *testing.T) {
	cases := planCases(1, 10000)
	reused := new(Plan)
	big := make([]uint64, 300)
	for i := range big {
		big[i] = uint64(i)*7919 + 1
	}
	if _, err := NewPlanner(hashring.NewMultiHashPlacement(16, 3, 1), Options{Hitchhike: true, DistinguishedSingles: true}).BuildInto(reused, big, 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for k := range cases {
		c := &cases[k]
		want, err := c.into(new(Plan))
		if err != nil {
			t.Fatalf("case %d: %v", k, err)
		}
		planDigest(h, want)
		got, err := c.into(reused)
		if err != nil || got != reused {
			t.Fatalf("case %d: BuildInto returned %p, %v; want the reused plan %p", k, got, err, reused)
		}
		if !samePlan(got, want) {
			t.Fatalf("case %d (%+v): reused plan\n%+v\nfresh plan\n%+v", k, c, got, want)
		}
	}
	if d := h.Sum64(); d != plansDigest {
		t.Errorf("plans digest %#x, want %#x: the planner decides differently", d, uint64(plansDigest))
	}
}

// TestRound2ReusedMatchesFresh: grouping into one reused Round2 gives
// what the historical map-based grouping did — one transaction per
// server in order of first appearance, each with its items in request
// order — whatever the groupings before it left behind.
func TestRound2ReusedMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var r Round2
	for k := 0; k < 1000; k++ {
		n := rng.Intn(30)
		items, dist := make([]uint64, n), make([]int, n)
		byServer := map[int][]uint64{}
		var order []int
		for i := range items {
			items[i], dist[i] = uint64(rng.Intn(1000)), rng.Intn(1+rng.Intn(24))
			if _, ok := byServer[dist[i]]; !ok {
				order = append(order, dist[i])
			}
			byServer[dist[i]] = append(byServer[dist[i]], items[i])
		}
		got := r.Group(items, dist)
		if len(got) != len(order) {
			t.Fatalf("grouping %d: %d transactions, want %d", k, len(got), len(order))
		}
		for i, s := range order {
			if got[i].Server != s || !slices.Equal(got[i].Primary, byServer[s]) || got[i].Hitchhikers != nil {
				t.Fatalf("grouping %d: transaction %d is %+v, want server %d with %v", k, i, got[i], s, byServer[s])
			}
		}
	}
}

// TestBuildIntoDuplicateLeavesPlan: a rejected request reports its
// error and touches nothing of the plan it was given.
func TestBuildIntoDuplicateLeavesPlan(t *testing.T) {
	p := NewPlanner(hashring.NewMultiHashPlacement(8, 2, 1), Options{Hitchhike: true})
	plan, err := p.BuildInto(new(Plan), []uint64{1, 2, 3}, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := p.Build([]uint64{1, 2, 3}, 0)
	if got, err := p.BuildInto(plan, []uint64{4, 5, 4}, 0, 0, nil); err == nil || got != nil {
		t.Fatalf("duplicate accepted: %+v, %v", got, err)
	}
	if !samePlan(plan, want) {
		t.Fatalf("rejected request changed the plan: %+v", plan)
	}
}
