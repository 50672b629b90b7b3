package cluster

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"rnb/internal/cbc"
	"rnb/internal/core"
	"rnb/internal/hashring"
	"rnb/internal/workload"
)

func mustNew(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Servers: 0, Items: 10, Replicas: 1},
		{Servers: 2, Items: 0, Replicas: 1},
		{Servers: 2, Items: 10, Replicas: 0},
		{Servers: 2, Items: 10, Replicas: 1, MemoryFactor: 0.5},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestUnreplicatedNeverMisses(t *testing.T) {
	c := mustNew(t, Config{Servers: 8, Items: 1000, Replicas: 1, MemoryFactor: 1.0})
	gen := workload.NewUniformGenerator(1000, 20, 1)
	for i := 0; i < 200; i++ {
		res, err := c.Do(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		if res.Misses != 0 || res.Round2 != 0 {
			t.Fatalf("request %d: misses=%d round2=%d in unreplicated full-memory cluster",
				i, res.Misses, res.Round2)
		}
		if res.Obtained != 20 {
			t.Fatalf("request %d: obtained %d/20", i, res.Obtained)
		}
	}
	if c.Tally().MissRate() != 0 {
		t.Fatal("non-zero miss rate")
	}
}

func TestUnlimitedMemoryReplicationReducesTPR(t *testing.T) {
	const items, servers = 2000, 16
	tprOf := func(replicas int) float64 {
		c := mustNew(t, Config{Servers: servers, Items: items, Replicas: replicas})
		gen := workload.NewUniformGenerator(items, 30, 7)
		if err := c.Run(gen, 300); err != nil {
			t.Fatal(err)
		}
		if c.Tally().MissRate() != 0 {
			t.Fatalf("replicas=%d: misses with unlimited memory", replicas)
		}
		return c.Tally().TPR()
	}
	tpr1 := tprOf(1)
	tpr2 := tprOf(2)
	tpr4 := tprOf(4)
	if !(tpr4 < tpr2 && tpr2 < tpr1) {
		t.Fatalf("TPR not monotone in replicas: r1=%.2f r2=%.2f r4=%.2f", tpr1, tpr2, tpr4)
	}
	// Paper fig. 6: ~>=40% reduction at 4 replicas on 16 servers.
	if tpr4 > 0.65*tpr1 {
		t.Fatalf("4 replicas reduced TPR only %.2f -> %.2f", tpr1, tpr4)
	}
}

func TestDistinguishedAlwaysRecoverable(t *testing.T) {
	// Heavy overbooking: 4 logical replicas, memory 1.25 copies. Misses
	// abound, but every request must complete via round 2 and the
	// distinguished-copy invariant must hold (Do errors otherwise).
	c := mustNew(t, Config{
		Servers: 16, Items: 3000, Replicas: 4, MemoryFactor: 1.25,
		Planner: core.Options{Hitchhike: true, DistinguishedSingles: true},
	})
	gen := workload.NewUniformGenerator(3000, 25, 3)
	for i := 0; i < 500; i++ {
		res, err := c.Do(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		if res.Obtained != 25 {
			t.Fatalf("request %d incomplete: %d/25", i, res.Obtained)
		}
	}
	if c.Tally().Misses == 0 {
		t.Fatal("expected misses under heavy overbooking (test premise broken)")
	}
}

func TestLimitRequestsFetchAtLeastTarget(t *testing.T) {
	c := mustNew(t, Config{Servers: 16, Items: 2000, Replicas: 3, MemoryFactor: 2})
	gen := workload.NewLimitGenerator(workload.NewUniformGenerator(2000, 40, 9), 0.5)
	for i := 0; i < 200; i++ {
		req := gen.Next()
		res, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Obtained < req.Target {
			t.Fatalf("request %d: obtained %d < target %d", i, res.Obtained, req.Target)
		}
	}
}

func TestLimitUsesFewerTransactions(t *testing.T) {
	run := func(frac float64) float64 {
		c := mustNew(t, Config{Servers: 32, Items: 4000, Replicas: 1, MemoryFactor: 1})
		var gen workload.Generator = workload.NewUniformGenerator(4000, 50, 11)
		if frac < 1 {
			gen = workload.NewLimitGenerator(gen.(*workload.UniformGenerator), frac)
		}
		if err := c.Run(gen, 200); err != nil {
			t.Fatal(err)
		}
		return c.Tally().TPR()
	}
	full, half := run(1.0), run(0.5)
	if half >= full {
		t.Fatalf("LIMIT 50%% TPR %.2f not below full-fetch TPR %.2f", half, full)
	}
}

func TestWriteBackRepopulatesAssignedServer(t *testing.T) {
	c := mustNew(t, Config{
		Servers: 4, Items: 400, Replicas: 2, MemoryFactor: 1.5,
		skipPrepopulate: true, // start with distinguished copies only
	})
	// First pass records misses; write-back should install replicas so a
	// second identical pass misses strictly less.
	gen1 := workload.NewUniformGenerator(400, 15, 5)
	if err := c.Run(gen1, 300); err != nil {
		t.Fatal(err)
	}
	missed1 := c.Tally().Misses
	c.ResetTally()
	gen2 := workload.NewUniformGenerator(400, 15, 5) // same seed: same stream
	if err := c.Run(gen2, 300); err != nil {
		t.Fatal(err)
	}
	missed2 := c.Tally().Misses
	if missed2 >= missed1 {
		t.Fatalf("write-back did not reduce misses: %d -> %d", missed1, missed2)
	}
}

func TestSkipWriteBack(t *testing.T) {
	c := mustNew(t, Config{
		Servers: 4, Items: 400, Replicas: 2, MemoryFactor: 1.5,
		skipPrepopulate: true, SkipWriteBack: true,
	})
	gen := workload.NewUniformGenerator(400, 15, 5)
	if err := c.Run(gen, 100); err != nil {
		t.Fatal(err)
	}
	missed1 := c.Tally().Misses
	c.ResetTally()
	gen2 := workload.NewUniformGenerator(400, 15, 5)
	if err := c.Run(gen2, 100); err != nil {
		t.Fatal(err)
	}
	// Without write-back (and no prepopulation) replicas never appear;
	// the same stream must miss identically.
	if c.Tally().Misses != missed1 {
		t.Fatalf("misses changed without write-back: %d -> %d", missed1, c.Tally().Misses)
	}
}

// TestHitchhikerRescueNotWrittenBack: only round-2 finds are written
// back, as in the live client. An item that misses at its assigned
// server but rides as a hitchhiker to its distinguished server is
// obtained in round 1, so its assigned server still lacks it after the
// request.
func TestHitchhikerRescueNotWrittenBack(t *testing.T) {
	c := mustNew(t, Config{
		Servers: 8, Items: 400, Replicas: 2, MemoryFactor: 2,
		Planner:         core.Options{Hitchhike: true},
		skipPrepopulate: true, // distinguished copies only: replicas miss
	})
	gen := workload.NewUniformGenerator(400, 12, 21)
	for n := 0; n < 200; n++ {
		req := gen.Next()
		plan, err := c.Planner().BuildInto(new(core.Plan), req.Items, req.Target, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range plan.Items {
			assigned, dist := plan.ItemServer[i], plan.Replicas[i][0]
			if assigned == dist || c.servers[assigned].Contains(it) {
				continue
			}
			for _, txn := range plan.Transactions {
				if txn.Server != dist || !slices.Contains(txn.Hitchhikers, it) {
					continue
				}
				rescued := c.Tally().HitchhikeHit
				res, err := c.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				if res.Obtained != len(req.Items) || c.Tally().HitchhikeHit == rescued {
					t.Fatalf("request %d: obtained %d/%d, hitchhike hits %d -> %d",
						n, res.Obtained, len(req.Items), rescued, c.Tally().HitchhikeHit)
				}
				if c.servers[assigned].Contains(it) {
					t.Fatalf("request %d: item %d, rescued by a hitchhiker on server %d, was written back to server %d",
						n, it, dist, assigned)
				}
				return
			}
		}
		if _, err := c.Do(req); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("no request put a missing item aboard its distinguished server as a hitchhiker")
}

func TestHitchhikersReduceRound2(t *testing.T) {
	run := func(hitchhike bool) uint64 {
		c := mustNew(t, Config{
			Servers: 16, Items: 3000, Replicas: 4, MemoryFactor: 1.5,
			Planner: core.Options{Hitchhike: hitchhike, DistinguishedSingles: true},
		})
		gen := workload.NewUniformGenerator(3000, 25, 13)
		if err := c.Run(gen, 400); err != nil {
			t.Fatal(err)
		}
		return c.Tally().Round2
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Fatalf("hitchhiking did not reduce round-2 transactions: with=%d without=%d",
			with, without)
	}
}

func TestFailServerValidation(t *testing.T) {
	c := mustNew(t, Config{Servers: 2, Items: 10, Replicas: 1})
	if err := c.FailServer(5); err == nil {
		t.Fatal("failed nonexistent server")
	}
	if err := c.RestoreServer(-1); err == nil {
		t.Fatal("restored nonexistent server")
	}
	if err := c.FailServer(0); err != nil {
		t.Fatal(err)
	}
	if err := c.FailServer(0); err != nil {
		t.Fatal("double fail should be idempotent")
	}
	if err := c.RestoreServer(0); err != nil {
		t.Fatal(err)
	}
}

func TestFailureUnreplicatedFallsToDB(t *testing.T) {
	c := mustNew(t, Config{Servers: 4, Items: 400, Replicas: 1, MemoryFactor: 1})
	if err := c.FailServer(0); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewUniformGenerator(400, 20, 3)
	for i := 0; i < 100; i++ {
		res, err := c.Do(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		if res.Obtained != 20 {
			t.Fatalf("request %d incomplete under failure: %d/20", i, res.Obtained)
		}
	}
	ta := c.Tally()
	if ta.DBFetches == 0 {
		t.Fatal("no DB fetches though 1/4 of unreplicated items are homed on the dead server")
	}
	// Roughly a quarter of items should fall through (hash balance).
	rate := float64(ta.DBFetches) / float64(ta.ItemsWanted)
	if rate < 0.10 || rate > 0.45 {
		t.Fatalf("DB fetch rate %.3f, want ~0.25", rate)
	}
}

func TestFailureReplicatedAvoidsDB(t *testing.T) {
	// With 3 replicas and unlimited memory, one dead server costs zero
	// DB fetches: survivors serve everything.
	c := mustNew(t, Config{Servers: 8, Items: 800, Replicas: 3})
	if err := c.FailServer(2); err != nil {
		t.Fatal(err)
	}
	gen := workload.NewUniformGenerator(800, 25, 5)
	for i := 0; i < 100; i++ {
		res, err := c.Do(gen.Next())
		if err != nil {
			t.Fatal(err)
		}
		if res.Obtained != 25 {
			t.Fatalf("request incomplete: %d/25", res.Obtained)
		}
	}
	if got := c.Tally().DBFetches; got != 0 {
		t.Fatalf("%d DB fetches despite 3 replicas and unlimited memory", got)
	}
	// And no planned transaction may touch the dead server... verified
	// implicitly: a transaction against server 2 would have found all
	// its pinned distinguished copies there, but planner avoidance
	// means its items were never assigned there. Spot-check via plan.
	plan, err := c.Planner().BuildInto(new(core.Plan), []uint64{1, 2, 3, 4, 5, 6, 7, 8}, 0, 0,
		func(s int) bool { return s == 2 })
	if err != nil {
		t.Fatal(err)
	}
	for _, txn := range plan.Transactions {
		if txn.Server == 2 {
			t.Fatal("plan routed to avoided server")
		}
	}
}

func TestFailureRestoreRecovers(t *testing.T) {
	c := mustNew(t, Config{Servers: 4, Items: 400, Replicas: 1, MemoryFactor: 1})
	_ = c.FailServer(1)
	gen := workload.NewUniformGenerator(400, 20, 7)
	if err := c.Run(gen, 50); err != nil {
		t.Fatal(err)
	}
	if c.Tally().DBFetches == 0 {
		t.Fatal("premise: failures should cause DB fetches")
	}
	_ = c.RestoreServer(1)
	c.ResetTally()
	if err := c.Run(gen, 50); err != nil {
		t.Fatal(err)
	}
	if got := c.Tally().DBFetches; got != 0 {
		t.Fatalf("%d DB fetches after restore", got)
	}
}

func TestFailureWithLimitRequests(t *testing.T) {
	// LIMIT requests under failures must still reach their target via
	// DB top-up, never underfetch.
	c := mustNew(t, Config{Servers: 4, Items: 400, Replicas: 1, MemoryFactor: 1})
	_ = c.FailServer(0)
	_ = c.FailServer(1)
	gen := workload.NewLimitGenerator(workload.NewUniformGenerator(400, 20, 9), 0.9)
	for i := 0; i < 100; i++ {
		req := gen.Next()
		res, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Obtained < req.Target {
			t.Fatalf("request %d: %d < target %d under failures", i, res.Obtained, req.Target)
		}
	}
}

func TestAllServersDown(t *testing.T) {
	c := mustNew(t, Config{Servers: 2, Items: 50, Replicas: 2})
	_ = c.FailServer(0)
	_ = c.FailServer(1)
	res, err := c.Do(workload.Request{Items: []uint64{1, 2, 3}, Target: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obtained != 3 || res.Transactions != 0 {
		t.Fatalf("total failure: obtained=%d txns=%d", res.Obtained, res.Transactions)
	}
	if c.Tally().DBFetches != 3 {
		t.Fatalf("DBFetches = %d, want 3", c.Tally().DBFetches)
	}
}

// TestActingSurvivorMissOwedEveryTime: with an item's distinguished
// server down and its surviving replica empty, round 2 asks the
// survivor, which misses. The store owes the item on every request, and
// nothing is stored on the survivor, as in the live client
// (rnb.TestLoaderStoresNothingOnActingSurvivor).
func TestActingSurvivorMissOwedEveryTime(t *testing.T) {
	c := mustNew(t, Config{
		Servers: 4, Items: 100, Replicas: 2,
		Planner:         core.Options{Hitchhike: true, DistinguishedSingles: true},
		skipPrepopulate: true,
	})
	const item = 7
	replicas := c.placement.Replicas(item, nil)
	if err := c.FailServer(replicas[0]); err != nil {
		t.Fatal(err)
	}
	for n := uint64(1); n <= 2; n++ {
		res, err := c.Do(workload.Request{Items: []uint64{item}, Target: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Obtained != 1 || res.Round2 != 1 {
			t.Fatalf("request %d: obtained %d, round 2 %d; want 1, 1", n, res.Obtained, res.Round2)
		}
		if got := c.Tally().DBFetches; got != n {
			t.Fatalf("after request %d: %d DB fetches, want %d", n, got, n)
		}
		if c.servers[replicas[1]].Contains(item) {
			t.Fatalf("request %d stored the item on the acting survivor", n)
		}
	}
}

func TestTallyBookkeeping(t *testing.T) {
	c := mustNew(t, Config{Servers: 4, Items: 100, Replicas: 2})
	req := workload.Request{Items: []uint64{1, 2, 3, 4, 5}, Target: 5}
	res, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ta := c.Tally()
	if ta.Requests != 1 {
		t.Fatalf("Requests = %d", ta.Requests)
	}
	if ta.Transactions != uint64(res.Transactions) {
		t.Fatal("transaction count mismatch")
	}
	if ta.ItemsWanted != 5 || ta.ItemsFetched != 5 {
		t.Fatalf("items wanted=%d fetched=%d", ta.ItemsWanted, ta.ItemsFetched)
	}
	if ta.TPRHist.Count() != 1 {
		t.Fatal("TPR histogram not updated")
	}
	if ta.TxnSize.Sum() < 5 {
		t.Fatalf("txn size histogram sum %d < items", ta.TxnSize.Sum())
	}
	c.ResetTally()
	if c.Tally().Requests != 0 {
		t.Fatal("ResetTally did not clear")
	}
}

func TestOccupancyBounded(t *testing.T) {
	c := mustNew(t, Config{Servers: 8, Items: 1000, Replicas: 3, MemoryFactor: 2})
	gen := workload.NewUniformGenerator(1000, 20, 2)
	if err := c.Run(gen, 200); err != nil {
		t.Fatal(err)
	}
	for s, occ := range c.Occupancy() {
		if occ > 1.35 {
			// Pinned entries may exceed nominal capacity slightly on
			// hash-imbalanced servers, but not wildly.
			t.Fatalf("server %d occupancy %.2f", s, occ)
		}
	}
}

func TestDuplicateItemsRejected(t *testing.T) {
	c := mustNew(t, Config{Servers: 4, Items: 100, Replicas: 2})
	if _, err := c.Do(workload.Request{Items: []uint64{1, 1}, Target: 2}); err == nil {
		t.Fatal("duplicate items accepted")
	}
}

func TestClusterWithAlternativePlacements(t *testing.T) {
	// The cluster must behave identically well over any Placement
	// implementation — including the Combinatorial Batch Code placement
	// with its balanced assignment hint — and the tally accounting must
	// be placement-agnostic.
	const servers, items, replicas = 8, 800, 3
	const reqs, k = 150, 20
	ring := hashring.NewWithServers(servers, 64)
	placements := map[string]hashring.Placement{
		"rch":       hashring.NewRCHPlacement(ring, replicas),
		"multihash": hashring.NewMultiHashPlacement(servers, replicas, 1),
		"jump":      hashring.NewJumpPlacement(servers, replicas, 1),
		"cbc":       cbc.New(servers, replicas, items, 1),
	}
	for name, p := range placements {
		t.Run(name, func(t *testing.T) {
			opts := core.Options{Hitchhike: true, DistinguishedSingles: true}
			if name == "cbc" {
				// CBC pairs with the balanced assignment path; the single
				// redirect is skipped there by design.
				opts = core.Options{Hitchhike: true, Hint: core.HintBalanceLoad}
			}
			c := mustNew(t, Config{
				Servers: servers, Items: items, Replicas: replicas,
				MemoryFactor: 2.0, Placement: p,
				Planner: opts,
			})
			gen := workload.NewUniformGenerator(items, k, 3)
			for i := 0; i < reqs; i++ {
				res, err := c.Do(gen.Next())
				if err != nil {
					t.Fatal(err)
				}
				if res.Obtained != k {
					t.Fatalf("request %d incomplete: %d/%d", i, res.Obtained, k)
				}
			}
			// Bundling must beat the no-replication urn-model expectation.
			expected := 8 * (1 - math.Pow(1-1.0/8, 20))
			if got := c.Tally().TPR(); got >= expected {
				t.Fatalf("TPR %.2f no better than unreplicated expectation %.2f", got, expected)
			}
			// Accounting invariants, identical for every placement: full
			// fetches obtain everything, so IPR is the request size; the
			// per-server counters partition the tally totals exactly.
			tally := c.Tally()
			if tally.Requests != reqs || tally.ItemsWanted != reqs*k {
				t.Fatalf("request accounting: %d requests, %d wanted", tally.Requests, tally.ItemsWanted)
			}
			if tally.ItemsFetched != tally.ItemsWanted {
				t.Fatalf("fetched %d of %d wanted on full fetches", tally.ItemsFetched, tally.ItemsWanted)
			}
			if got := tally.IPR(); got != k {
				t.Fatalf("IPR = %.2f, want %d", got, k)
			}
			var txns, itemReads uint64
			for _, l := range c.ServerLoads() {
				txns += l
			}
			for _, l := range c.ServerItemLoads() {
				itemReads += l
			}
			if txns != tally.Transactions {
				t.Fatalf("per-server loads sum to %d, tally has %d transactions", txns, tally.Transactions)
			}
			if itemReads != tally.TxnSize.Sum() {
				t.Fatalf("per-server item loads sum to %d, TxnSize total %d", itemReads, tally.TxnSize.Sum())
			}
		})
	}
}

func TestClusterPlacementMismatch(t *testing.T) {
	p := hashring.NewMultiHashPlacement(4, 2, 1)
	if _, err := New(Config{Servers: 8, Items: 10, Replicas: 2, Placement: p}); err == nil {
		t.Fatal("placement/server mismatch accepted")
	}
}

func TestConfigAccessor(t *testing.T) {
	c := mustNew(t, Config{Servers: 4, Items: 100, Replicas: 2})
	if c.Config().Servers != 4 || c.Planner() == nil {
		t.Fatal("accessors broken")
	}
}

func BenchmarkDo16Servers4Replicas(b *testing.B) {
	c, err := New(Config{
		Servers: 16, Items: 10000, Replicas: 4, MemoryFactor: 2,
		Planner: core.Options{Hitchhike: true, DistinguishedSingles: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewUniformGenerator(10000, 25, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Do(gen.Next()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestConcurrentDo hammers one cluster from many goroutines — request
// execution racing failure toggles, tally resets, and the inspection
// methods. Run under -race (make race) it proves the cluster's mutex
// actually covers every mutable path; the invariant checked here is
// that every request still obtains all of its items.
func TestConcurrentDo(t *testing.T) {
	c := mustNew(t, Config{Servers: 8, Items: 2000, Replicas: 3, MemoryFactor: 2.0})
	const G = 16
	done := make(chan error, G)
	for g := 0; g < G; g++ {
		go func(g int) {
			gen := workload.NewUniformGenerator(2000, 20, int64(g))
			for i := 0; i < 50; i++ {
				switch {
				case g == 0 && i%10 == 5:
					c.FailServer(i % 8)
				case g == 0 && i%10 == 9:
					c.RestoreServer((i - 4) % 8)
				case g == 1 && i%25 == 24:
					c.ResetTally()
				case g == 2 && i%10 == 3:
					c.ServerLoads()
					c.Occupancy()
				}
				req := gen.Next()
				res, err := c.Do(req)
				if err != nil {
					done <- err
					return
				}
				if res.Obtained != len(req.Items) {
					done <- fmt.Errorf("goroutine %d: obtained %d of %d", g, res.Obtained, len(req.Items))
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < G; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
