//go:build !race

// Allocation-budget regression gates for the client's per-server call
// paths (run via `make bench-alloc`; excluded under -race because the
// race runtime's shadow allocations distort testing.AllocsPerRun).
package rnb

import (
	"bytes"
	"testing"

	"rnb/internal/obs"
)

// allocGate fails when fn's steady-state allocation count exceeds the
// budget. The measured value is logged so regressions show their size.
// The steady state starts once the flight recorder has wrapped: until
// then each request's span fills a fresh slot, whose RTT array is
// allocated once and reused by every span after it, so the warm-up
// runs fn once per slot and once more (which also warms the lazily
// initialized pools).
func allocGate(t *testing.T, name string, budget float64, fn func()) {
	t.Helper()
	for range obs.DefaultRingSize + 1 {
		fn()
	}
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
// produce. It measures 4: the result map (2), the round's item array (1)
// and the reply's value arena (1); the recorder copies the span's RTT
// stamps into the array its ring slot already owns, the server reads the
// keys as views of its connection's memory, and the request lives in its
// connection's slot. A fan-out of two is pinned on a six-server tier by
// searching for a key set that plans to exactly two transactions (the
// hitchhikers aboard, whose number depends on the ring, change nothing:
// a round's items are one array, each reply's values one arena): the
// second reply adds its value arena (1), since both replies decode into
// windows of the round's one item array. Both are sent before either
// reply is read, so the two servers work at once, and a server goroutine
// that finds its sync.Pool scratch taken by the other adds 2: the gate
// is 7, and the single-transaction gate is the exact one for the read
// path itself. None of these grows with the number of items a reply
// carries, and only the value arena grows with the number of
// transactions. A Get costs 2, its reply's item array and value (its
// replica lookup fills a pooled record's buffer); a Set 7: on each of
// the three servers what the store keeps, the Item and the one buffer
// holding its value and key (the server parses the command into its
// connection's memory), and 1 on the client.
func TestAllocBudgetClient(t *testing.T) {
	value := bytes.Repeat([]byte("v"), 100)
	cl, _ := newTestClient(t, 3, WithReplicas(3))
	ks := keys(8)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	allocGate(t, "Get", 2, func() {
		if _, err := cl.Get(ks[0]); err != nil {
			t.Fatal(err)
		}
	})
	allocGate(t, "GetMulti 8 keys r=3, 1 transaction", 4, func() {
		items, stats, err := cl.GetMulti(ks)
		if err != nil || len(items) != len(ks) || stats.Transactions != 1 {
			t.Fatalf("%d items, %+v, err %v", len(items), stats, err)
		}
	})
	it := &Item{Key: ks[0], Value: value}
	allocGate(t, "Set r=3", 7, func() {
		if err := cl.Set(it); err != nil {
			t.Fatal(err)
		}
	})

	// The same multi-get traced adds 2: the server keeps its phase
	// timings (1), and the client decodes them into the round trip's
	// ServerTimings (1). The trace context's line is parsed in place, and
	// the reservoir copies a traced span only when it keeps it — past the
	// warm-up, rarely.
	traced, _ := newTestClient(t, 3, WithReplicas(3), WithTracing(TraceConfig{SampleEvery: 1}))
	for _, k := range ks {
		if err := traced.Set(&Item{Key: k, Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	allocGate(t, "traced GetMulti 8 keys r=3, 1 transaction", 6, func() {
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
	// It measures 9: the two rounds' item arrays, the three replies'
	// value arenas and the result map. The write-backs cost nothing:
	// queuing one costs the client nothing, round 2's tables and grouping
	// come from the request's record, and the server parses each add into
	// its connection's memory and, on this tier that keeps no replica,
	// refuses it for capacity before copying anything.
	virtual, vpool := newVirtualReplicaTier(t, 3, 64)
	for i := 0; i+16 <= len(vpool); i++ {
		vks := vpool[i : i+16]
		queued := virtual.poolGauges.WriteBackQueued.Load()
		_, stats, err := virtual.GetMulti(vks)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Transactions == 3 && stats.Round2 == 2 && virtual.poolGauges.WriteBackQueued.Load()-queued == 10 {
			allocGate(t, "GetMulti 16 keys r=3, 1+2 transactions, 10 write-backs", 9, func() {
				if items, _, err := virtual.GetMulti(vks); err != nil || len(items) != len(vks) {
					t.Fatalf("%d items, err %v", len(items), err)
				}
			})
			break
		}
	}

	wide, _ := newTestClient(t, 6, WithReplicas(3))
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
			allocGate(t, "GetMulti 8 keys r=3, 2 transactions", 7, func() {
				if items, _, err := wide.GetMulti(ks); err != nil || len(items) != len(ks) {
					t.Fatalf("%d items, err %v", len(items), err)
				}
			})
			return
		}
	}
	t.Skip("no 8-key window of the pool plans to exactly two transactions on this ring")
}
