package sim

import (
	"fmt"

	"rnb/internal/cluster"
	"rnb/internal/hashring"
	"rnb/internal/hotspot"
	"rnb/internal/workload"
)

func init() { register("hotspot", Hotspot) }

// hotspotSkews is the default Zipf-exponent sweep; Config.Skew > 0
// pins the run to a single exponent instead.
var hotspotSkews = []float64{0.6, 1.0, 1.2, 1.4}

// Hotspot compares fixed-r replication against adaptive hot-key
// replication (internal/hotspot) under Zipf-skewed point queries, at an
// equal total RAM budget. Fixed r leaves each key on exactly r servers,
// so under heavy skew the handful of servers holding the hottest keys'
// replicas absorb a disproportionate share of the transactions. The
// adaptive placement detects those keys from the request stream and
// boosts their replication degree, giving the greedy planner more
// placement freedom exactly where the traffic concentrates; boosted
// copies compete for the same LRU memory (overbooking), so no extra
// RAM is granted.
//
// Reported: transactions landing on the hottest server per 1000
// requests (the bottleneck-relief measure), with TPR, max/mean load
// imbalance, and the adaptive controller's RAM overhead in the notes.
//
// This is an extension experiment (no corresponding paper figure).
func Hotspot(cfg Config) (Table, error) {
	cfg = cfg.WithDefaults()
	skews := hotspotSkews
	if cfg.Skew > 0 {
		skews = []float64{cfg.Skew}
	}
	const (
		servers  = 16
		replicas = 2
		perReq   = 20
		memory   = 1.5
	)
	items := 200000 / cfg.Scale
	if items < 4*perReq {
		items = 4 * perReq
	}
	t := Table{
		ID:    "hotspot",
		Title: "Hottest-server load: fixed r vs adaptive hot-key replication under Zipf skew",
		XLabel: fmt.Sprintf("zipf exponent s (%d servers, r=%d, %d items, mem %.1fx, %d items/req)",
			servers, replicas, items, memory, perReq),
		YLabel: "txns at hottest server per 1000 requests",
		Notes: []string{
			"extension experiment: equal RAM budget, boosted copies overbook the same LRUs",
		},
	}

	type point struct {
		maxLoad   float64 // hottest-server txns per 1000 requests
		imbalance float64 // max/mean server load
		tpr       float64
	}
	run := func(s float64, adaptive bool) (point, *hotspot.Counters, error) {
		ring := hashring.NewWithServers(servers, hashring.DefaultVirtualNodes)
		var placement hashring.Placement = hashring.NewRCHPlacement(ring, replicas)
		counters := &hotspot.Counters{}
		if adaptive {
			placement = hotspot.NewAdaptive(placement, hotspot.Config{
				MaxBoost:   3,
				EpochOps:   10000,
				MaxHotKeys: 128,
				Seed:       uint64(cfg.Seed) + 77,
			}, counters)
		}
		c, err := cluster.New(cluster.Config{
			Servers: servers, Items: items, Replicas: replicas,
			MemoryFactor: memory, Placement: placement,
			Planner: enhancedOptions,
		})
		if err != nil {
			return point{}, nil, err
		}
		gen := workload.NewZipfGenerator(items, perReq, s, cfg.Seed+500)
		if err := c.Run(gen, cfg.Warmup); err != nil {
			return point{}, nil, err
		}
		c.ResetTally()
		if err := c.Run(gen, cfg.Requests); err != nil {
			return point{}, nil, err
		}
		var max, total uint64
		loads := c.ServerLoads()
		for _, l := range loads {
			total += l
			if l > max {
				max = l
			}
		}
		mean := float64(total) / float64(len(loads))
		return point{
			maxLoad:   float64(max) * 1000 / float64(cfg.Requests),
			imbalance: float64(max) / mean,
			tpr:       c.Tally().TPR(),
		}, counters, nil
	}

	fixed := Series{Label: fmt.Sprintf("fixed r=%d", replicas)}
	adapt := Series{Label: "adaptive (max boost +3)"}
	for _, s := range skews {
		fp, _, err := run(s, false)
		if err != nil {
			return Table{}, fmt.Errorf("sim: hotspot fixed s=%.1f: %w", s, err)
		}
		ap, counters, err := run(s, true)
		if err != nil {
			return Table{}, fmt.Errorf("sim: hotspot adaptive s=%.1f: %w", s, err)
		}
		fixed.X = append(fixed.X, s)
		fixed.Y = append(fixed.Y, fp.maxLoad)
		adapt.X = append(adapt.X, s)
		adapt.Y = append(adapt.Y, ap.maxLoad)
		hotKeys, boosted := counters.HotKeys.Load(), counters.BoostReplicas.Load()
		ramOverhead := float64(boosted) / float64(items)
		t.Notes = append(t.Notes, fmt.Sprintf(
			"s=%.1f: max-load %.0f vs %.0f txns/1k req; imbalance %.2f vs %.2f; TPR %.2f vs %.2f; "+
				"%d hot keys, +%d boosted copies (RAM +%.3f%%) [fixed vs adaptive]",
			s, fp.maxLoad, ap.maxLoad, fp.imbalance, ap.imbalance, fp.tpr, ap.tpr,
			hotKeys, boosted, 100*ramOverhead))
	}
	t.Series = append(t.Series, fixed, adapt)
	return t, nil
}
