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
// and collect, apply) must not cost a hot path a single allocation. A
// multi-get's own working state — key index, plan, span, fan-out and
// round-2 tables — comes from its pooled record (multiGet) and costs
// nothing either. At r=3 over three servers every key lives everywhere,
// so the plan is one transaction whatever ring the ephemeral ports
// produce. It measures 7: the result map (2), the reply's item array,
// value arena and one-key scratch (3), the server's copy of the request
// line (1), and the recorder's copy of the span's RTT stamps (1). A
// fan-out of two is pinned on a six-server tier by searching for a key
// set that plans to exactly two transactions (hitchhiking off: a
// hitchhiker's decoded duplicate would make the count depend on the
// ring too): the second reply and request line add 4. Both are sent
// before either reply is read, so the two servers work at once, and a
// server goroutine that finds its sync.Pool scratch taken by the other
// adds 2: the gate is 13, and the single-transaction gate is the exact
// one for the read path itself. None of these grows with the number of
// items a reply carries: the items of one transaction arrive as one
// array and one value arena and are merged by reference. A Get costs 5
// (its replica lookup fills a buffer sized for r), a Set 13.
func TestAllocBudgetClient(t *testing.T) {
	value := bytes.Repeat([]byte("v"), 100)
	cl, _ := newTestClient(t, 3, WithReplicas(3))
	ks := keys(8)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	allocGate(t, "Get", 5, func() {
		if _, err := cl.Get(ks[0]); err != nil {
			t.Fatal(err)
		}
	})
	allocGate(t, "GetMulti 8 keys r=3, 1 transaction", 7, func() {
		items, stats, err := cl.GetMulti(ks)
		if err != nil || len(items) != len(ks) || stats.Transactions != 1 {
			t.Fatalf("%d items, %+v, err %v", len(items), stats, err)
		}
	})
	it := &Item{Key: ks[0], Value: value}
	allocGate(t, "Set r=3", 13, func() {
		if err := cl.Set(it); err != nil {
			t.Fatal(err)
		}
	})

	// The same multi-get traced adds 3: the server reads the trace
	// context's line (1) and keeps its phase timings (1), and the client
	// decodes them into the round trip's ServerTimings (1).
	traced, _ := newTestClient(t, 3, WithReplicas(3), WithTracing(TraceConfig{SampleEvery: 1}))
	for _, k := range ks {
		if err := traced.Set(&Item{Key: k, Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	allocGate(t, "traced GetMulti 8 keys r=3, 1 transaction", 10, func() {
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
	// It measures 57: the three transactions' replies and request lines,
	// the result map, the RTT copy, and per write-back the four the
	// server spends parsing and refusing an add — queuing one costs the
	// client nothing, and round 2's tables and grouping come from the
	// request's record.
	virtual, vpool := newVirtualReplicaTier(t, 3, 64)
	for i := 0; i+16 <= len(vpool); i++ {
		vks := vpool[i : i+16]
		queued := virtual.poolGauges.WriteBackQueued.Load()
		_, stats, err := virtual.GetMulti(vks)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Transactions == 3 && stats.Round2 == 2 && virtual.poolGauges.WriteBackQueued.Load()-queued == 10 {
			allocGate(t, "GetMulti 16 keys r=3, 1+2 transactions, 10 write-backs", 57, func() {
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
			allocGate(t, "GetMulti 8 keys r=3, 2 transactions", 13, func() {
				if items, _, err := wide.GetMulti(ks); err != nil || len(items) != len(ks) {
					t.Fatalf("%d items, err %v", len(items), err)
				}
			})
			return
		}
	}
	t.Skip("no 8-key window of the pool plans to exactly two transactions on this ring")
}
