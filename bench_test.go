// Ablation benchmarks for the design choices called out in DESIGN.md
// and quoted in EXPERIMENTS.md:
//
//	go test -bench=Ablation -benchmem
//
// The paper's figures and the simulated extensions are regenerated by
// cmd/rnbsim (`rnbsim fig8`, `rnbsim hotspot`, ...), not from here.
package rnb_test

import (
	"fmt"
	"math/rand"
	"net"
	"runtime/metrics"
	"testing"
	"time"

	"rnb"
	"rnb/internal/bitset"
	"rnb/internal/cluster"
	"rnb/internal/core"
	"rnb/internal/hashring"
	"rnb/internal/memcache"
	"rnb/internal/memslap"
	"rnb/internal/setcover"
	"rnb/internal/workload"
)

// --- ablation benchmarks (design choices from DESIGN.md) -------------

func randomCoverInstance(r *rand.Rand, universeSize, nSets, density int) (*bitset.Set, []*bitset.Set) {
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

// BenchmarkAblationCoverGreedy measures the eager greedy cover on an
// RnB-typical instance (requests of ~100 items, 16 candidate servers).
func BenchmarkAblationCoverGreedy(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	universe, ss := randomCoverInstance(r, 100, 16, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setcover.Greedy(universe, ss)
	}
}

// BenchmarkAblationCoverExact bounds the cost of optimal covers on a
// small instance, and reports how much greedy overshoots optimal.
func BenchmarkAblationCoverExact(b *testing.B) {
	r := rand.New(rand.NewSource(12))
	universe, ss := randomCoverInstance(r, 24, 8, 3)
	var greedyLen, exactLen int
	for i := 0; i < b.N; i++ {
		g := setcover.Greedy(universe, ss)
		e, ok := setcover.Exact(universe, ss, 0)
		if !ok {
			b.Fatal("uncoverable ablation instance")
		}
		greedyLen, exactLen = len(g.Picked), len(e.Picked)
	}
	b.ReportMetric(float64(greedyLen)/float64(exactLen), "greedy/optimal")
}

// BenchmarkFanoutGetMulti is the live client's fan-out on loopback: a
// 12-key GetMulti over 8 servers at r = 3 from parallel callers (run it
// with -cpu 2). The caller sends every transaction of the plan, then
// collects the replies itself: no goroutine is started per transaction,
// so under rnb.(*Client).getMulti a -cpuprofile should show neither
// runtime.newproc nor runtime.newstack. The stack a goroutine starts on
// is the runtime's running average of the stacks it scans, so every
// goroutine in the process moves it: start-stack-B reports it at the
// end. EXPERIMENTS.md's live-path ledger records both, run by run.
func BenchmarkFanoutGetMulti(b *testing.B) {
	addrs := make([]string, 8)
	for i := range addrs {
		srv := memcache.NewServer(memcache.NewStore(0))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(ln)
		b.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
	}
	cl, err := rnb.NewClient(addrs, rnb.WithReplicas(3))
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("fanout:%02d", i)
		if err := cl.Set(&rnb.Item{Key: keys[i], Value: make([]byte, 100)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if items, _, err := cl.GetMulti(keys); err != nil || len(items) != len(keys) {
				b.Errorf("GetMulti: %d items, %v", len(items), err)
				return
			}
		}
	})
	start := []metrics.Sample{{Name: "/gc/stack/starting-size:bytes"}}
	metrics.Read(start)
	b.ReportMetric(float64(start[0].Value.Uint64()), "start-stack-B")
}

// benchProtocolItemsPerSec runs a small memslap load in the given
// protocol and reports items/s.
func benchProtocolItemsPerSec(b *testing.B, binaryProto bool) {
	b.Helper()
	srv := memcache.NewServer(memcache.NewStore(0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	if err := memslap.Preload(ln.Addr().String(), 5000, 10, 10*time.Second); err != nil {
		b.Fatal(err)
	}
	var rate float64
	for i := 0; i < b.N; i++ {
		res, err := memslap.Run(memslap.Config{
			Addr: ln.Addr().String(), Concurrency: 2, TxnSize: 32,
			Keys: 5000, Transactions: 600, Seed: 1, Binary: binaryProto,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = res.ItemsPerSecond()
	}
	b.ReportMetric(rate, "items/s")
}

// BenchmarkAblationProtocolText measures the text protocol under the
// memaslap-style load (k=32).
func BenchmarkAblationProtocolText(b *testing.B) { benchProtocolItemsPerSec(b, false) }

// BenchmarkAblationProtocolBinary is the binary-protocol counterpart
// (quiet-get pipelines).
func BenchmarkAblationProtocolBinary(b *testing.B) { benchProtocolItemsPerSec(b, true) }

// BenchmarkAblationPlacementRCH measures ranged-consistent-hashing
// replica lookup.
func BenchmarkAblationPlacementRCH(b *testing.B) {
	p := hashring.NewRCHPlacement(hashring.NewWithServers(16, 128), 4)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.Replicas(uint64(i), buf)
	}
}

// BenchmarkAblationPlacementMultiHash measures independent multi-hash
// replica lookup.
func BenchmarkAblationPlacementMultiHash(b *testing.B) {
	p := hashring.NewMultiHashPlacement(16, 4, 1)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.Replicas(uint64(i), buf)
	}
}

// enhancementTPR runs a memory-constrained cluster with the given
// enhancement switches and returns the measured TPR.
func enhancementTPR(b *testing.B, hitchhike, distinguishedSingles bool, replicas int) float64 {
	b.Helper()
	c, err := cluster.New(cluster.Config{
		Servers: 16, Items: 4000, Replicas: replicas, MemoryFactor: 2.0,
		Planner: core.Options{Hitchhike: hitchhike, DistinguishedSingles: distinguishedSingles},
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewUniformGenerator(4000, 20, 5)
	if err := c.Run(gen, 1500); err != nil {
		b.Fatal(err)
	}
	c.ResetTally()
	if err := c.Run(gen, 1500); err != nil {
		b.Fatal(err)
	}
	return c.Tally().TPR()
}

// BenchmarkAblationEnhancementsAllOn measures TPR with hitchhiking and
// distinguished-single redirection enabled (the paper's configuration).
func BenchmarkAblationEnhancementsAllOn(b *testing.B) {
	var tpr float64
	for i := 0; i < b.N; i++ {
		tpr = enhancementTPR(b, true, true, 4)
	}
	b.ReportMetric(tpr, "TPR")
}

// BenchmarkAblationEnhancementsAllOff measures TPR with both
// enhancements disabled, isolating their contribution.
func BenchmarkAblationEnhancementsAllOff(b *testing.B) {
	var tpr float64
	for i := 0; i < b.N; i++ {
		tpr = enhancementTPR(b, false, false, 4)
	}
	b.ReportMetric(tpr, "TPR")
}

// BenchmarkAblationOverbooking sweeps the logical replication level at
// fixed physical memory (2x), reporting TPR per level — the overbooking
// trade-off of §III-C-1.
func BenchmarkAblationOverbooking(b *testing.B) {
	for _, replicas := range []int{1, 2, 4, 6} {
		replicas := replicas
		b.Run(fmt.Sprintf("logical=%d", replicas), func(b *testing.B) {
			var tpr float64
			for i := 0; i < b.N; i++ {
				tpr = enhancementTPR(b, true, true, replicas)
			}
			b.ReportMetric(tpr, "TPR")
		})
	}
}
