//go:build !race

// Allocation-budget regression gates for the client's per-server call
// paths (run via `make bench-alloc`; excluded under -race because the
// race runtime's shadow allocations distort testing.AllocsPerRun).
package rnb

import (
	"bytes"
	"testing"
)

// allocGate fails when fn's steady-state allocation count exceeds the
// budget. The measured value is logged so regressions show their size.
func allocGate(t *testing.T, name string, budget float64, fn func()) {
	t.Helper()
	fn() // warm lazily initialized pools outside the measured window
	got := testing.AllocsPerRun(200, fn)
	t.Logf("%s: %.1f allocs/op (budget %.1f)", name, got, budget)
	if got > budget {
		t.Errorf("%s: %.1f allocs/op, budget %.1f", name, got, budget)
	}
}

// TestAllocBudgetClient pins the whole-process cost of the calls the
// benchmark workloads are made of — client and in-process servers
// together, since AllocsPerRun counts every goroutine — at the numbers
// they measure: the shared routines (slot.do's verdict, fanout's send
// and collect, apply) must not cost a hot path a single allocation. At
// r=3 over three servers every key lives everywhere, so the plan is one
// transaction whatever ring the ephemeral ports produce; a fan-out of
// two is pinned on a six-server tier by searching for a key set that
// plans to exactly two transactions (hitchhiking off: a hitchhiker's
// decoded duplicate would make the count depend on the ring too). Both
// are sent before either reply is read, so the two servers work at
// once: it measures 26, or 28 when their goroutines overlap and one
// finds its sync.Pool scratch taken, so the single-transaction gate is
// the exact one for the read path itself. A round's transactions cost
// one key array and no goroutine, closure or lock between them. None of
// these grows with the number of items a reply carries: the items of one
// transaction arrive as one array and one value arena and are merged by
// reference.
func TestAllocBudgetClient(t *testing.T) {
	value := bytes.Repeat([]byte("v"), 100)
	cl, _ := newTestClient(t, 3, WithReplicas(3))
	ks := keys(8)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	allocGate(t, "Get", 7, func() {
		if _, err := cl.Get(ks[0]); err != nil {
			t.Fatal(err)
		}
	})
	allocGate(t, "GetMulti 8 keys r=3, 1 transaction", 21, func() {
		items, stats, err := cl.GetMulti(ks)
		if err != nil || len(items) != len(ks) || stats.Transactions != 1 {
			t.Fatalf("%d items, %+v, err %v", len(items), stats, err)
		}
	})
	it := &Item{Key: ks[0], Value: value}
	allocGate(t, "Set r=3", 15, func() {
		if err := cl.Set(it); err != nil {
			t.Fatal(err)
		}
	})

	// The same multi-get traced: the span's RTT array is copied once,
	// into the request recorder.
	traced, _ := newTestClient(t, 3, WithReplicas(3), WithTracing(TraceConfig{SampleEvery: 1}))
	for _, k := range ks {
		if err := traced.Set(&Item{Key: k, Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	allocGate(t, "traced GetMulti 8 keys r=3, 1 transaction", 24, func() {
		items, stats, err := traced.GetMulti(ks)
		if err != nil || len(items) != len(ks) || stats.Transactions != 1 {
			t.Fatalf("%d items, %+v, err %v", len(items), stats, err)
		}
	})

	// Round-2 recovery with write-backs, on a tier whose replicas stay
	// virtual so that every run is the same request. At r=3 over three
	// servers the plan is one transaction and round 2 visits the other
	// two; how many of the 16 keys it recovers, and so writes back,
	// depends on the ring, so a window with exactly ten is searched for.
	// It measures 91 to 93 with how the ten split between round 2's two
	// servers (SecondRound's per-server lists grow by doubling): the
	// request's own round-2 state (built once, at the first miss, with one
	// array behind the per-key replica lists), one key array per round,
	// one reply slab per transaction, and per write-back the four the
	// server spends parsing and refusing an add — queuing one costs the
	// client nothing.
	virtual, vpool := newVirtualReplicaTier(t, 3, 64)
	for i := 0; i+16 <= len(vpool); i++ {
		vks := vpool[i : i+16]
		queued := virtual.poolGauges.WriteBackQueued.Load()
		_, stats, err := virtual.GetMulti(vks)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Transactions == 3 && stats.Round2 == 2 && virtual.poolGauges.WriteBackQueued.Load()-queued == 10 {
			allocGate(t, "GetMulti 16 keys r=3, 1+2 transactions, 10 write-backs", 93, func() {
				if items, _, err := virtual.GetMulti(vks); err != nil || len(items) != len(vks) {
					t.Fatalf("%d items, err %v", len(items), err)
				}
			})
			break
		}
	}

	wide, _ := newTestClient(t, 6, WithReplicas(3), WithHitchhiking(false))
	pool := keys(64)
	for _, k := range pool {
		if err := wide.Set(&Item{Key: k, Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+8 <= len(pool); i++ {
		ks = pool[i : i+8]
		if _, stats, err := wide.GetMulti(ks); err != nil {
			t.Fatal(err)
		} else if stats.Transactions == 2 && stats.Round2 == 0 {
			allocGate(t, "GetMulti 8 keys r=3, 2 transactions", 28, func() {
				if items, _, err := wide.GetMulti(ks); err != nil || len(items) != len(ks) {
					t.Fatalf("%d items, err %v", len(items), err)
				}
			})
			return
		}
	}
	t.Skip("no 8-key window of the pool plans to exactly two transactions on this ring")
}
