package sim

import (
	"fmt"
	"net"
	"time"

	"rnb/internal/calibrate"
	"rnb/internal/memcache"
	"rnb/internal/memslap"
)

func init() {
	register("fig13", Fig13)
	register("fig14", Fig14)
}

// microTxnSizes is the transaction-size sweep of figs. 13–14.
var microTxnSizes = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}

// sweep starts an in-process memcached server on loopback TCP, preloads
// tiny values, and sweeps the multi-get transaction size with the given
// number of concurrent memaslap-style clients, returning items/s per
// transaction size.
func sweep(cfg Config, clients int) (Series, error) {
	srv := memcache.NewServer(memcache.NewStore(0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Series{}, err
	}
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	const keys = 20000
	if err := memslap.Preload(addr, keys, 10, 10*time.Second); err != nil {
		return Series{}, err
	}
	// Item volume per sweep point scales with the configured request
	// budget so quick runs stay quick.
	itemsPerPoint := cfg.Requests * 25
	points, err := memslap.Sweep(memslap.Config{
		Addr:        addr,
		Concurrency: clients,
		Keys:        keys,
		ValueSize:   10,
		SetPerItems: 1000,
		Seed:        cfg.Seed,
		Skew:        cfg.Skew,
	}, microTxnSizes, itemsPerPoint)
	if err != nil {
		return Series{}, err
	}
	s := Series{Label: fmt.Sprintf("%d client(s)", clients)}
	for _, p := range points {
		s.X = append(s.X, float64(p.TxnSize))
		s.Y = append(s.Y, p.Result.ItemsPerSecond())
	}
	return s, nil
}

// fitSweep fits the affine cost model to a sweep's items/s curve: the
// calibration step of §III-B.
func fitSweep(s Series) (calibrate.CostModel, error) {
	var pts []calibrate.Point
	for i := range s.X {
		k := int(s.X[i])
		if s.Y[i] > 0 {
			pts = append(pts, calibrate.Point{K: k, TxnPerSec: s.Y[i] / float64(k)})
		}
	}
	return calibrate.Fit(pts)
}

// microbench runs the sweep and reports it with the cost model fitted
// to it. clients=1 regenerates fig. 13, clients=2 fig. 14.
func microbench(cfg Config, clients int) (Table, error) {
	s, err := sweep(cfg.WithDefaults(), clients)
	if err != nil {
		return Table{}, err
	}
	model, err := fitSweep(s)
	fit := fmt.Sprintf("fitted cost model: %.2f us/transaction + %.3f us/item", model.Fixed*1e6, model.PerItem*1e6)
	if err != nil {
		// A noisy host can defeat the fit; the curve still stands.
		fit = "no cost model fitted: " + err.Error()
	}
	return Table{
		Title:  fmt.Sprintf("Items fetched per second vs. items per transaction (%d concurrent client(s))", clients),
		XLabel: "items per get transaction",
		YLabel: "items fetched per second",
		Series: []Series{s},
		Notes: []string{
			"in-process memcached clone over loopback TCP; 10-byte values; 1 set per 1000 gets",
			"absolute rates depend on the host; the near-linear growth is the result",
			fit,
			fmt.Sprintf("simulator default: %.2f us/transaction + %.3f us/item",
				calibrate.DefaultModel.Fixed*1e6, calibrate.DefaultModel.PerItem*1e6),
		},
	}, nil
}

// LiveModel runs a quick single-client micro-benchmark and fits the
// affine cost model from it — the paper's calibration procedure
// (App. A feeding §III-B). Used by Fig3 when Config.CalibrateLive is
// set.
func LiveModel(cfg Config) (calibrate.CostModel, error) {
	quick := cfg.WithDefaults()
	if quick.Requests > 1000 {
		quick.Requests = 1000 // calibration needs shape, not precision
	}
	if quick.Requests < 400 {
		quick.Requests = 400 // too few transactions per point fit noise
	}
	// Measurement noise (loaded hosts, coverage instrumentation) can
	// push a small sample into an unusable fit; retry with a growing
	// budget before giving up.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, err := sweep(quick, 1)
		if err != nil {
			return calibrate.CostModel{}, err
		}
		model, err := fitSweep(s)
		if err == nil {
			return model, nil
		}
		lastErr = err
		quick.Requests *= 2
		quick.Seed++
	}
	return calibrate.CostModel{}, lastErr
}

// Fig13 reproduces paper fig. 13: the single-client micro-benchmark.
func Fig13(cfg Config) (Table, error) {
	t, err := microbench(cfg, 1)
	t.ID = "fig13"
	return t, err
}

// Fig14 reproduces paper fig. 14: the same benchmark with two
// concurrent clients.
func Fig14(cfg Config) (Table, error) {
	t, err := microbench(cfg, 2)
	t.ID = "fig14"
	return t, err
}
