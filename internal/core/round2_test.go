package core

import (
	"reflect"
	"slices"
	"testing"
)

// TestRecoveryRule is the table of the shared miss-handling rule: which
// items round 2 asks and where (Missing), where each find is written
// back (WriteBack), and what the backing store owes (Owed). Every plan
// has four items, 10, 20, 30 and 40.
func TestRecoveryRule(t *testing.T) {
	type writeBack struct {
		item   uint64
		from   int
		server int
		asked  bool
	}
	cases := []struct {
		name     string
		assigned []int   // ItemServer; -1 is dropped by a LIMIT plan
		replicas [][]int // distinguished copy first
		have     []bool
		avoid    []int
		target   int
		round2   []Transaction
		writes   []writeBack
		owed     []int
	}{
		{
			name:     "misses go to their distinguished copy and back to their assigned replica",
			assigned: []int{1, 2, 0, 3},
			replicas: [][]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}},
			have:     []bool{false, false, true, false},
			round2:   []Transaction{{Server: 0, Primary: []uint64{10}}, {Server: 1, Primary: []uint64{20}}, {Server: 2, Primary: []uint64{40}}},
			writes: []writeBack{
				{item: 10, from: 0, server: 1, asked: true},
				{item: 20, from: 1, server: 2, asked: true},
				{item: 30, from: 0, server: -1, asked: false}, // round 1 had it
				{item: 99, from: 0, server: -1, asked: false}, // not requested at all
			},
			owed: []int{0, 1, 3},
		},
		{
			name:     "no write-back to the server that answered or to an avoided one",
			assigned: []int{1, 1, 2, 3},
			replicas: [][]int{{0, 1}, {2, 1}, {3, 2}, {3, 0}},
			have:     []bool{false, false, false, true},
			avoid:    []int{0, 2},
			// 10's distinguished server is down, so its assigned survivor
			// acts for it; 30's assigned server has failed since planning.
			round2: []Transaction{{Server: 1, Primary: []uint64{10, 20}}, {Server: 3, Primary: []uint64{30}}},
			writes: []writeBack{
				{item: 10, from: 1, server: -1, asked: true},
				{item: 20, from: 1, server: -1, asked: true},
				{item: 30, from: 3, server: -1, asked: true},
			},
			owed: []int{0, 1, 2},
		},
		{
			name:     "every replica avoided: owed, not asked",
			assigned: []int{1, 2, 0, 3},
			replicas: [][]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}},
			have:     []bool{true, false, true, true},
			avoid:    []int{1, 2},
			round2:   []Transaction{},
			writes:   []writeBack{{item: 20, from: 1, server: -1, asked: false}},
			owed:     []int{1},
		},
		{
			name:     "a LIMIT plan owes only its shortfall, in request order",
			assigned: []int{0, -1, 1, -1},
			replicas: [][]int{{0, 1}, {1, 2}, {1, 2}, {2, 3}},
			have:     []bool{true, false, false, false},
			target:   3,
			round2:   []Transaction{{Server: 1, Primary: []uint64{30}}},
			writes:   []writeBack{{item: 20, from: 1, server: -1, asked: false}},
			owed:     []int{1, 2},
		},
	}
	var r Round2 // one Round2 for every case, as a caller keeps it
	for _, c := range cases {
		plan := &Plan{Items: []uint64{10, 20, 30, 40}, ItemServer: c.assigned, Replicas: c.replicas}
		have := func(i int) bool { return c.have[i] }
		var avoid func(int) bool
		if c.avoid != nil {
			avoid = func(s int) bool { return slices.Contains(c.avoid, s) }
		}
		got := r.Missing(plan, have, avoid)
		if len(got) != len(c.round2) || (len(got) > 0 && !reflect.DeepEqual(got, c.round2)) {
			t.Errorf("%s: round 2 %+v, want %+v", c.name, got, c.round2)
		}
		for _, w := range c.writes {
			if s, asked := r.WriteBack(w.item, w.from, avoid); s != w.server || asked != w.asked {
				t.Errorf("%s: WriteBack(%d, from %d) = %d, %v; want %d, %v", c.name, w.item, w.from, s, asked, w.server, w.asked)
			}
		}
		if owed := Owed(plan, have, c.target, nil); !slices.Equal(owed, c.owed) {
			t.Errorf("%s: owed %v, want %v", c.name, owed, c.owed)
		}
	}
}
