// Package memslap is a load generator for the memcache server, modeled
// on the memaslap utility the paper uses for its micro-benchmarks
// (Appendix A, figs. 13–14).
//
// Like the paper's setup, it issues multi-get transactions of a
// configurable size over tiny values (10 bytes by default), mixes in
// one single-item set per 1000 items fetched, and reports the item
// fetch rate. Sweeping the transaction size reproduces the shape of
// fig. 13: items/s grows nearly linearly with transaction size while
// the per-transaction cost dominates.
package memslap

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"rnb/internal/memcache"
	"rnb/internal/workload"
)

// Config parameterizes one benchmark run.
type Config struct {
	// Addr is the server to slam.
	Addr string
	// Concurrency is the number of client goroutines (each with its own
	// connection), like memaslap's --concurrency.
	Concurrency int
	// TxnSize is the number of keys per get transaction.
	TxnSize int
	// Keys is the key-universe size; keys are "key-<n>".
	Keys int
	// ValueSize is the stored value size in bytes (the paper uses 10).
	ValueSize int
	// Transactions is the total number of get transactions to issue
	// across all workers.
	Transactions int
	// SetPerItems issues one single-item set per this many items
	// fetched (the paper uses 1000). 0 disables sets.
	SetPerItems int
	// Seed makes key selection reproducible.
	Seed int64
	// Skew, when > 0, draws keys Zipf(Skew)-distributed over the key
	// universe (key-0 hottest) instead of uniformly — the hot-key
	// workload for exercising adaptive replication end to end.
	Skew float64
	// Timeout is the per-operation network timeout.
	Timeout time.Duration
	// Binary selects the memcached binary protocol (quiet-get
	// pipelines) instead of the text protocol, like memaslap's --binary.
	Binary bool
}

// dial connects one worker's own single-connection client, speaking
// the configured wire format.
func dial(cfg Config) (*memcache.Client, error) {
	if cfg.Binary {
		return memcache.DialBinary(cfg.Addr, cfg.Timeout)
	}
	return memcache.Dial(cfg.Addr, cfg.Timeout)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Concurrency <= 0 {
		out.Concurrency = 1
	}
	if out.TxnSize <= 0 {
		out.TxnSize = 1
	}
	if out.Keys <= 0 {
		out.Keys = 10000
	}
	if out.ValueSize <= 0 {
		out.ValueSize = 10
	}
	if out.Transactions <= 0 {
		out.Transactions = 1000
	}
	if out.SetPerItems < 0 {
		out.SetPerItems = 0
	}
	if out.Timeout <= 0 {
		out.Timeout = 10 * time.Second
	}
	return out
}

// Result summarizes a run.
type Result struct {
	Transactions uint64
	ItemsFetched uint64
	Misses       uint64
	Sets         uint64
	Elapsed      time.Duration
}

// ItemsPerSecond returns the headline metric of fig. 13.
func (r Result) ItemsPerSecond() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.ItemsFetched) / s
}

// TransactionsPerSecond returns the transaction completion rate.
func (r Result) TransactionsPerSecond() float64 {
	s := r.Elapsed.Seconds()
	if s <= 0 {
		return 0
	}
	return float64(r.Transactions) / s
}

// Key returns the canonical benchmark key for index i.
func Key(i int) string { return fmt.Sprintf("key-%08d", i) }

// Preload stores all benchmark keys on the server so get transactions
// hit.
func Preload(addr string, keys, valueSize int, timeout time.Duration) error {
	cl, err := memcache.Dial(addr, timeout)
	if err != nil {
		return err
	}
	defer cl.Close()
	val := make([]byte, valueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	for i := 0; i < keys; i++ {
		if err := cl.Set(&memcache.Item{Key: Key(i), Value: val}); err != nil {
			return fmt.Errorf("memslap: preload key %d: %w", i, err)
		}
	}
	return nil
}

// Run executes the benchmark and returns aggregate counters. The
// server must already hold the keys (see Preload); misses are counted
// but do not abort the run.
func Run(cfg Config) (Result, error) {
	c := cfg.withDefaults()
	var (
		issued  atomic.Int64 // transactions handed out
		items   atomic.Uint64
		misses  atomic.Uint64
		sets    atomic.Uint64
		txns    atomic.Uint64
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	val := make([]byte, c.ValueSize)
	for i := range val {
		val[i] = byte('a' + i%26)
	}

	start := time.Now()
	for w := 0; w < c.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := dial(c)
			if err != nil {
				errOnce.Do(func() { runErr = err })
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(c.Seed + int64(w)*7919))
			var zipf *workload.Zipf
			if c.Skew > 0 {
				zipf = workload.NewZipf(c.Skew, c.Keys, c.Seed+int64(w)*7919)
			}
			keys := make([]string, c.TxnSize)
			sinceSet := 0
			for {
				if issued.Add(1) > int64(c.Transactions) {
					return
				}
				for i := range keys {
					if zipf != nil {
						keys[i] = Key(int(zipf.Next()))
					} else {
						keys[i] = Key(rng.Intn(c.Keys))
					}
				}
				found, err := cl.GetMulti(keys)
				if err != nil {
					errOnce.Do(func() { runErr = err })
					return
				}
				txns.Add(1)
				items.Add(uint64(len(found)))
				misses.Add(uint64(len(keys) - len(found)))
				sinceSet += len(found)
				if c.SetPerItems > 0 && sinceSet >= c.SetPerItems {
					sinceSet = 0
					it := &memcache.Item{Key: Key(rng.Intn(c.Keys)), Value: val}
					if err := cl.Set(it); err != nil {
						errOnce.Do(func() { runErr = err })
						return
					}
					sets.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	res := Result{
		Transactions: txns.Load(),
		ItemsFetched: items.Load(),
		Misses:       misses.Load(),
		Sets:         sets.Load(),
		Elapsed:      time.Since(start),
	}
	return res, runErr
}

// SweepPoint is one (transaction size, result) pair from Sweep.
type SweepPoint struct {
	TxnSize int
	Result  Result
}

// Sweep runs the benchmark across several transaction sizes, holding
// the total item volume roughly constant so each point gets comparable
// measurement time. This regenerates fig. 13 (one client process) and,
// with Concurrency doubled, fig. 14.
func Sweep(base Config, txnSizes []int, itemsPerPoint int) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, k := range txnSizes {
		cfg := base
		cfg.TxnSize = k
		cfg.Transactions = itemsPerPoint / k
		if cfg.Transactions < 1 {
			cfg.Transactions = 1
		}
		res, err := Run(cfg)
		if err != nil {
			return out, fmt.Errorf("memslap: sweep txn size %d: %w", k, err)
		}
		out = append(out, SweepPoint{TxnSize: k, Result: res})
	}
	return out, nil
}
