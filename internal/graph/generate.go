package graph

import (
	"fmt"
	"math/rand"
	"sort"
)

// GenConfig parameterizes the synthetic social-graph generator.
type GenConfig struct {
	Name  string
	Nodes int
	// Edges is the target directed edge count; the generated graph lands
	// within a small tolerance (duplicates are resampled, but a node's
	// out-degree is capped at Nodes-1).
	Edges int
	// Seed makes generation reproducible.
	Seed int64
	// ZipfS is the Zipf exponent shaping both the out-degree draw and
	// the in-attractiveness weights. Values near 2 give the heavy tails
	// seen in figs. 4–5. Zero selects the default 2.0.
	ZipfS float64
}

// Generate builds a directed graph with a heavy-tailed degree
// distribution using a Chung-Lu style fitness model: each node draws a
// Zipf out-degree (scaled so the total hits cfg.Edges) and a Zipf
// in-attractiveness weight; out-edges then sample targets with
// probability proportional to the target's weight. This reproduces the
// properties of the paper's social graphs that matter to RnB —
// heavy-tailed ego-network sizes and popular nodes shared by many
// ego-networks — without requiring the original datasets.
func Generate(cfg GenConfig) (*Graph, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("graph: need at least 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Edges < cfg.Nodes {
		return nil, fmt.Errorf("graph: need at least %d edges for %d nodes", cfg.Nodes, cfg.Nodes)
	}
	s := cfg.ZipfS
	if s == 0 {
		s = 2.0
	}
	if s <= 1 {
		return nil, fmt.Errorf("graph: ZipfS must be > 1, got %g", s)
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Nodes

	// Raw Zipf draws for out-degree shape and in-attractiveness.
	zipf := rand.NewZipf(r, s, 1, uint64(n-1))
	rawOut := make([]float64, n)
	inWeight := make([]float64, n)
	var rawSum float64
	for i := 0; i < n; i++ {
		rawOut[i] = float64(1 + zipf.Uint64())
		rawSum += rawOut[i]
		inWeight[i] = float64(1 + zipf.Uint64())
	}

	// Scale raw draws so out-degrees total ~cfg.Edges, each >= 1.
	outDeg := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		d := int(rawOut[i] * float64(cfg.Edges) / rawSum)
		if d < 1 {
			d = 1
		}
		if d > n-1 {
			d = n - 1
		}
		outDeg[i] = d
		total += d
	}
	// Distribute the rounding remainder over random nodes.
	for total < cfg.Edges {
		i := r.Intn(n)
		if outDeg[i] < n-1 {
			outDeg[i]++
			total++
		}
	}
	for total > cfg.Edges {
		i := r.Intn(n)
		if outDeg[i] > 1 {
			outDeg[i]--
			total--
		}
	}

	// Cumulative in-weights for proportional target sampling.
	cum := make([]float64, n+1)
	for i := 0; i < n; i++ {
		cum[i+1] = cum[i] + inWeight[i]
	}
	sample := func() int {
		x := r.Float64() * cum[n]
		return sort.SearchFloat64s(cum[1:], x)
	}

	b := NewBuilder(cfg.Name, n)
	seen := make(map[int64]struct{}, cfg.Edges)
	for u := 0; u < n; u++ {
		added := 0
		attempts := 0
		maxAttempts := outDeg[u] * 30
		for added < outDeg[u] && attempts < maxAttempts {
			attempts++
			v := sample()
			if v == u {
				continue
			}
			key := int64(u)*int64(n) + int64(v)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			if err := b.AddEdge(u, v); err != nil {
				return nil, err
			}
			added++
		}
		// If proportional sampling keeps colliding (very hot targets),
		// fall back to uniform targets to hit the degree budget.
		for added < outDeg[u] {
			v := r.Intn(n)
			if v == u {
				continue
			}
			key := int64(u)*int64(n) + int64(v)
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			if err := b.AddEdge(u, v); err != nil {
				return nil, err
			}
			added++
		}
	}
	return b.Build(), nil
}

// Published sizes of the paper's datasets (§III-B).
const (
	SlashdotNodes = 82168
	SlashdotEdges = 948464
	EpinionsNodes = 75879
	EpinionsEdges = 508837
)

// ScaledSlashdotLike generates a Slashdot-shaped graph scaled down by
// factor (>= 1), keeping the average degree. Used by tests and quick
// simulations where the full 82k-node graph is unnecessarily slow.
func ScaledSlashdotLike(seed int64, factor int) *Graph {
	if factor < 1 {
		factor = 1
	}
	g, err := Generate(GenConfig{
		Name:  fmt.Sprintf("slashdot-like/%d", factor),
		Nodes: SlashdotNodes / factor,
		Edges: SlashdotEdges / factor,
		Seed:  seed,
	})
	if err != nil {
		panic(err)
	}
	return g
}

// ScaledEpinionsLike is ScaledSlashdotLike for the Epinions shape.
func ScaledEpinionsLike(seed int64, factor int) *Graph {
	if factor < 1 {
		factor = 1
	}
	g, err := Generate(GenConfig{
		Name:  fmt.Sprintf("epinions-like/%d", factor),
		Nodes: EpinionsNodes / factor,
		Edges: EpinionsEdges / factor,
		Seed:  seed,
	})
	if err != nil {
		panic(err)
	}
	return g
}
