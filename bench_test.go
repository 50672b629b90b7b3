// Benchmark harness: one benchmark per paper table/figure (fig2–fig14)
// plus ablation benchmarks for the design choices called out in
// DESIGN.md. Figure benchmarks execute the corresponding experiment
// driver end to end at a reduced scale and report the figure's
// headline quantity as a custom metric, so
//
//	go test -bench=Fig -benchmem
//
// regenerates every result. For paper-sized runs use cmd/rnbsim with
// -scale 1.
package rnb_test

import (
	"fmt"
	"math/rand"
	"net"
	"testing"
	"time"

	"rnb/internal/bitset"
	"rnb/internal/cluster"
	"rnb/internal/core"
	"rnb/internal/hashring"
	"rnb/internal/memcache"
	"rnb/internal/memslap"
	"rnb/internal/setcover"
	"rnb/internal/sim"
	"rnb/internal/workload"
)

// benchCfg keeps figure benchmarks fast enough to iterate while
// preserving every shape; it mirrors the unit tests' quick config.
var benchCfg = sim.Config{Seed: 1, Scale: 40, Requests: 600, Warmup: 600}

// runFigure executes a sim driver b.N times and reports a headline
// metric extracted from the resulting table.
func runFigure(b *testing.B, id string, metric string, extract func(sim.Table) float64) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		tab, err := sim.Run(id, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		last = extract(tab)
	}
	b.ReportMetric(last, metric)
}

func seriesByLabel(b *testing.B, tab sim.Table, substr string) sim.Series {
	b.Helper()
	for _, s := range tab.Series {
		if contains(s.Label, substr) {
			return s
		}
	}
	b.Fatalf("no series matching %q in %s", substr, tab.ID)
	return sim.Series{}
}

func contains(hay, needle string) bool {
	for i := 0; i+len(needle) <= len(hay); i++ {
		if hay[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// BenchmarkFig2 regenerates fig. 2 and reports the doubling scaling
// factor at N=M=50 (paper: ~1.5).
func BenchmarkFig2(b *testing.B) {
	runFigure(b, "fig2", "scale-factor@N=M=50", func(tab sim.Table) float64 {
		return seriesByLabel(b, tab, "50 items").Y[49]
	})
}

// BenchmarkFig3 regenerates fig. 3 and reports the relative throughput
// at 64 servers (ideal: 64; the hole keeps it far lower).
func BenchmarkFig3(b *testing.B) {
	runFigure(b, "fig3", "rel-throughput@64srv", func(tab sim.Table) float64 {
		s := seriesByLabel(b, tab, "measured")
		return s.Y[len(s.Y)-1]
	})
}

// BenchmarkFig4 regenerates the Slashdot degree histogram and reports
// the number of non-empty log buckets.
func BenchmarkFig4(b *testing.B) {
	runFigure(b, "fig4", "degree-buckets", func(tab sim.Table) float64 {
		return float64(len(tab.Series[0].X))
	})
}

// BenchmarkFig5 is BenchmarkFig4 for the Epinions-like graph.
func BenchmarkFig5(b *testing.B) {
	runFigure(b, "fig5", "degree-buckets", func(tab sim.Table) float64 {
		return float64(len(tab.Series[0].X))
	})
}

// BenchmarkFig6 regenerates fig. 6 and reports TPR(4 replicas)/TPR(1)
// on the Slashdot-like workload (paper: ~0.5 or better).
func BenchmarkFig6(b *testing.B) {
	runFigure(b, "fig6", "tpr-ratio@4replicas", func(tab sim.Table) float64 {
		s := seriesByLabel(b, tab, "slashdot")
		return s.Y[3] / s.Y[0]
	})
}

// BenchmarkFig8 regenerates fig. 8 and reports the TPR ratio of 4
// logical replicas at 2.5x memory (paper: ~0.5).
func BenchmarkFig8(b *testing.B) {
	runFigure(b, "fig8", "tpr-ratio@4rep-2.5x", func(tab sim.Table) float64 {
		s := seriesByLabel(b, tab, "4 logical")
		for i, x := range s.X {
			if x == 2.5 {
				return s.Y[i]
			}
		}
		return -1
	})
}

// BenchmarkFig9 regenerates fig. 9 (merged requests) and reports the
// same quantity as fig. 8.
func BenchmarkFig9(b *testing.B) {
	runFigure(b, "fig9", "tpr-ratio@4rep-2.5x", func(tab sim.Table) float64 {
		s := seriesByLabel(b, tab, "4 logical")
		for i, x := range s.X {
			if x == 2.5 {
				return s.Y[i]
			}
		}
		return -1
	})
}

// BenchmarkFig10 regenerates fig. 10 and reports merged-2 TPR at 4
// replicas and 4x memory.
func BenchmarkFig10(b *testing.B) {
	runFigure(b, "fig10", "tpr@merged2-4rep-4x", func(tab sim.Table) float64 {
		s := seriesByLabel(b, tab, "merged-2, 4 logical")
		return s.Y[len(s.Y)-1]
	})
}

// BenchmarkFig11 regenerates fig. 11 and reports the TPR of a 90%
// fetch of 100 items on 32 servers without replication.
func BenchmarkFig11(b *testing.B) {
	runFigure(b, "fig11", "tpr@M100-90pct-32srv", func(tab sim.Table) float64 {
		s := seriesByLabel(b, tab, "M=100, fetch 90%")
		return s.Y[3]
	})
}

// BenchmarkFig12 regenerates fig. 12 and reports the 5-replica /
// no-replication TPR ratio at a 90% fetch of 100 items on 32 servers
// (paper: ~0.3).
func BenchmarkFig12(b *testing.B) {
	runFigure(b, "fig12", "tpr-ratio@5rep-90pct", func(tab sim.Table) float64 {
		r1 := seriesByLabel(b, tab, "M=100, fetch 90%, no replication")
		r5 := seriesByLabel(b, tab, "M=100, fetch 90%, 5 replicas")
		return r5.Y[3] / r1.Y[3]
	})
}

// BenchmarkFig13 runs the single-client micro-benchmark over loopback
// TCP and reports items/s at 256-item transactions.
func BenchmarkFig13(b *testing.B) {
	cfg := benchCfg
	cfg.Requests = 400
	var last float64
	for i := 0; i < b.N; i++ {
		tab, err := sim.Run("fig13", cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := tab.Series[0]
		last = s.Y[len(s.Y)-1]
	}
	b.ReportMetric(last, "items/s@k=256")
}

// BenchmarkFig14 is the two-client variant.
func BenchmarkFig14(b *testing.B) {
	cfg := benchCfg
	cfg.Requests = 400
	var last float64
	for i := 0; i < b.N; i++ {
		tab, err := sim.Run("fig14", cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := tab.Series[0]
		last = s.Y[len(s.Y)-1]
	}
	b.ReportMetric(last, "items/s@k=256")
}

// --- extension experiments (no corresponding paper figure) -----------

// BenchmarkGrowth regenerates the growth extension and reports the
// replica-churn fraction for RCH at 16 servers.
func BenchmarkGrowth(b *testing.B) {
	runFigure(b, "growth", "rch-churn@16srv", func(tab sim.Table) float64 {
		s := seriesByLabel(b, tab, "ranged consistent hashing")
		for i, x := range s.X {
			if x == 16 {
				return s.Y[i]
			}
		}
		return -1
	})
}

// BenchmarkLatency regenerates the latency extension and reports the
// baseline/RnB p99 ratio at the baseline's nominal capacity.
func BenchmarkLatency(b *testing.B) {
	runFigure(b, "latency", "p99-ratio@fullload", func(tab sim.Table) float64 {
		base := seriesByLabel(b, tab, "1 replica(s)")
		rnb4 := seriesByLabel(b, tab, "4 replica(s)")
		for i, x := range base.X {
			if x == 1.0 && rnb4.Y[i] > 0 {
				return base.Y[i] / rnb4.Y[i]
			}
		}
		return -1
	})
}

// BenchmarkFailure regenerates the failure extension and reports the
// unreplicated DB-fetch rate (per 1000 items) with one dead server.
func BenchmarkFailure(b *testing.B) {
	runFigure(b, "failure", "db-per-1k@1fail-1rep", func(tab sim.Table) float64 {
		s := seriesByLabel(b, tab, "1 replica(s)")
		for i, x := range s.X {
			if x == 1 {
				return s.Y[i]
			}
		}
		return -1
	})
}

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

// BenchmarkAblationCoverLazy is the lazy-greedy variant on the same
// instance.
func BenchmarkAblationCoverLazy(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	universe, ss := randomCoverInstance(r, 100, 16, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		setcover.GreedyLazy(universe, ss, 100)
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

// BenchmarkHotspot regenerates the hotspot extension experiment at a
// pinned s=1.2 and reports how much hottest-server load adaptive
// hot-key replication sheds versus fixed r at equal RAM (percent; see
// EXPERIMENTS.md and `make bench-skew` for the full sweep).
func BenchmarkHotspot(b *testing.B) {
	cfg := benchCfg
	cfg.Skew = 1.2
	cfg.Requests = 1500
	cfg.Warmup = 1500
	var last float64
	for i := 0; i < b.N; i++ {
		tab, err := sim.Run("hotspot", cfg)
		if err != nil {
			b.Fatal(err)
		}
		fixed := seriesByLabel(b, tab, "fixed").Y[0]
		adapt := seriesByLabel(b, tab, "adaptive").Y[0]
		last = 100 * (fixed - adapt) / fixed
	}
	b.ReportMetric(last, "maxload-reduction-%")
}
