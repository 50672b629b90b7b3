// Package cluster simulates a memcached storage tier under RnB
// (paper §III-B, §III-D).
//
// Each simulated server is a capacity-limited LRU store. The
// *distinguished* copy of every item is pinned on its home server, so
// it can never miss — this reproduces the paper's accounting, where the
// space set aside for distinguished copies equals what an unreplicated
// system would use, and misses therefore cost only extra transactions,
// never database trips. Additional logical replicas compete for
// whatever memory remains (overbooking, §III-C-1): cold replicas fall
// out through LRU, hot ones stay because the deterministic greedy
// planner keeps choosing the same replica for similar requests.
//
// A request is executed in up to two rounds, as in §III-D:
//
//  1. the planned transactions are sent; every requested key costs the
//     server a lookup (hit or miss), and hitchhikers may turn misses
//     into hits;
//  2. items still missing are fetched, bundled, from their
//     distinguished servers — these transactions always hit.
//
// Missed items are written back to the server the planner assigned them
// to (the "first picked" replica), adapting the physical replica
// layout to the workload.
package cluster

import (
	"fmt"
	"math"
	"sync"

	"rnb/internal/core"
	"rnb/internal/hashring"
	"rnb/internal/lru"
	"rnb/internal/metrics"
	"rnb/internal/workload"
)

// Config parameterizes a simulated cluster.
type Config struct {
	// Servers is the number of memcached servers (> 0).
	Servers int
	// Items is the size of the item universe (> 0). Item ids are
	// 0..Items-1.
	Items int
	// Replicas is the declared (logical) replication level (>= 1).
	Replicas int
	// MemoryFactor is the total cluster memory expressed as a multiple
	// of one full copy of the data (1.0 = exactly enough for every
	// item once). <= 0 means unlimited memory: every logical replica is
	// physically resident, as in the fig. 6 experiments.
	MemoryFactor float64
	// Placement overrides the replica placement; nil selects ranged
	// consistent hashing over a fresh ring.
	Placement hashring.Placement
	// Planner options (hitchhiking, distinguished-single redirection).
	Planner core.Options
	// WriteBackOnMiss writes a missed item to its assigned server after
	// the request completes (§III-C-2 policy). Defaults to true via
	// New; set SkipWriteBack to disable.
	SkipWriteBack bool
	// Prepopulate loads all logical replicas (LRU order: replica level
	// round-robin) before the first request, instead of starting with
	// distinguished copies only. Defaults to true via New; set
	// SkipPrepopulate to disable.
	SkipPrepopulate bool
}

// HeatObserver is the key-stream hook an adaptive placement (package
// internal/hotspot) exposes: the cluster feeds every request's items
// into it before planning, so the heat tracker sees exactly what the
// planner is asked for.
type HeatObserver interface {
	Observe(items []uint64)
}

// Cluster is a simulated RnB memcached tier. All methods are safe for
// concurrent use: one mutex serializes request execution and state
// inspection, which keeps multi-goroutine drivers (the pooled-client
// benchmarks, chaos sweeps) honest without complicating the simulation
// itself — simulated "servers" share LRU state, so finer-grained
// locking would buy nothing here.
type Cluster struct {
	cfg       Config
	placement hashring.Placement
	planner   *core.Planner
	observer  HeatObserver // non-nil when the placement tracks heat

	mu        sync.Mutex
	servers   []*lru.Cache[uint64, struct{}]
	down      []bool
	nDown     int
	tally     metrics.Tally
	loads     []uint64 // per-server transactions served (round 1 + round 2)
	itemLoads []uint64 // per-server items carried by those transactions
}

// New builds and populates a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("cluster: need at least one server, got %d", cfg.Servers)
	}
	if cfg.Items < 1 {
		return nil, fmt.Errorf("cluster: need at least one item, got %d", cfg.Items)
	}
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("cluster: replication level must be >= 1, got %d", cfg.Replicas)
	}
	if cfg.MemoryFactor > 0 && cfg.MemoryFactor < 1 {
		return nil, fmt.Errorf("cluster: memory factor %.2f < 1 cannot hold the distinguished copies",
			cfg.MemoryFactor)
	}
	placement := cfg.Placement
	if placement == nil {
		ring := hashring.NewWithServers(cfg.Servers, hashring.DefaultVirtualNodes)
		placement = hashring.NewRCHPlacement(ring, cfg.Replicas)
	}
	if placement.NumServers() != cfg.Servers {
		return nil, fmt.Errorf("cluster: placement has %d servers, config says %d",
			placement.NumServers(), cfg.Servers)
	}

	perServer := int64(math.MaxInt64 / 2)
	if cfg.MemoryFactor > 0 {
		total := cfg.MemoryFactor * float64(cfg.Items)
		perServer = int64(math.Round(total / float64(cfg.Servers)))
	}

	c := &Cluster{
		cfg:       cfg,
		placement: placement,
		planner:   core.NewPlanner(placement, cfg.Planner),
		servers:   make([]*lru.Cache[uint64, struct{}], cfg.Servers),
		down:      make([]bool, cfg.Servers),
		loads:     make([]uint64, cfg.Servers),
		itemLoads: make([]uint64, cfg.Servers),
	}
	if obs, ok := placement.(HeatObserver); ok {
		c.observer = obs
	}
	for i := range c.servers {
		c.servers[i] = lru.New[uint64, struct{}](perServer)
	}
	c.populate()
	return c, nil
}

// populate pins the distinguished copy of every item and, unless
// disabled, loads the remaining logical replicas level by level so LRU
// pressure falls evenly across items rather than on low ids.
func (c *Cluster) populate() {
	var buf []int
	for item := 0; item < c.cfg.Items; item++ {
		buf = c.placement.Replicas(uint64(item), buf)
		c.servers[buf[0]].Put(uint64(item), struct{}{}, 1, true)
	}
	if c.cfg.SkipPrepopulate {
		return
	}
	for level := 1; level < c.cfg.Replicas; level++ {
		for item := 0; item < c.cfg.Items; item++ {
			buf = c.placement.Replicas(uint64(item), buf)
			if level < len(buf) {
				c.servers[buf[level]].Put(uint64(item), struct{}{}, 1, false)
			}
		}
	}
}

// Planner exposes the cluster's planner (for diagnostics and tests).
func (c *Cluster) Planner() *core.Planner { return c.planner }

// Tally returns the accumulated metrics.
func (c *Cluster) Tally() *metrics.Tally { return &c.tally }

// ResetTally clears the metrics (e.g. after warm-up) without touching
// cache state. Per-server load counters reset with the tally.
func (c *Cluster) ResetTally() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tally = metrics.Tally{}
	for i := range c.loads {
		c.loads[i] = 0
		c.itemLoads[i] = 0
	}
}

// ServerLoads returns a copy of the per-server transaction counts
// since the last ResetTally — the load-imbalance measurement behind
// the hotspot experiments (max/mean of this slice is the imbalance
// factor).
func (c *Cluster) ServerLoads() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.loads...)
}

// ServerItemLoads returns a copy of the per-server item-lookup counts
// since the last ResetTally: how many keys each server was asked for,
// across round-1 primaries, hitchhikers, and round-2 bundles. This is
// the per-server *work* measure the Combinatorial Batch Code bound
// (internal/cbc) speaks to — a server can serve few transactions yet
// still be the bottleneck if each carries many items.
func (c *Cluster) ServerItemLoads() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.itemLoads...)
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Occupancy returns, per server, resident cost / capacity. Diagnostics.
func (c *Cluster) Occupancy() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.servers))
	for i, s := range c.servers {
		if s.Capacity() > 0 {
			out[i] = float64(s.Cost()) / float64(s.Capacity())
		}
	}
	return out
}

// FailServer marks a server as down (fail-stop). Plans route around
// it; items with no surviving replica fall through to the
// authoritative store (counted in Tally().DBFetches). The server's
// memory is retained for RestoreServer, modeling a process restart
// behind a warm cache or a fast-rejoining node.
func (c *Cluster) FailServer(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.servers) {
		return fmt.Errorf("cluster: no server %d", i)
	}
	if !c.down[i] {
		c.down[i] = true
		c.nDown++
	}
	return nil
}

// RestoreServer brings a failed server back.
func (c *Cluster) RestoreServer(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.servers) {
		return fmt.Errorf("cluster: no server %d", i)
	}
	if c.down[i] {
		c.down[i] = false
		c.nDown--
	}
	return nil
}

// avoidFn returns the plan filter for the current failure set, or nil
// when everything is up (fast path).
func (c *Cluster) avoidFn() func(int) bool {
	if c.nDown == 0 {
		return nil
	}
	return func(s int) bool { return c.down[s] }
}

// RequestResult reports what one request cost.
type RequestResult struct {
	Transactions int // round-1 + round-2
	Round2       int
	Misses       int // assigned items that missed at their assigned server
	Obtained     int // distinct requested items fetched
	// Bottleneck is the largest number of keys any single server was
	// asked for while serving this request — the per-request measure the
	// Combinatorial Batch Code bound (internal/cbc) caps: with a CBC
	// placement and core.HintBalanceLoad, Bottleneck ≤ Guarantee(k) for
	// every k-item full fetch (absent failures and hitchhikers).
	Bottleneck int
}

// Do executes one request against the cluster and updates the tally.
func (c *Cluster) Do(req workload.Request) (RequestResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.observer != nil {
		// Feed the heat tracker before planning, mirroring the client:
		// the epoch controller may rotate here, between requests, never
		// mid-plan.
		c.observer.Observe(req.Items)
	}
	avoid := c.avoidFn()
	plan, err := c.planner.BuildAvoiding(req.Items, req.Target, avoid)
	if err != nil {
		return RequestResult{}, err
	}
	m := len(plan.Items)
	index := make(map[uint64]int, m)
	for i, it := range plan.Items {
		index[it] = i
	}
	obtained := make([]bool, m)
	perSrv := make(map[int]int) // server -> keys asked of it, this request
	var res RequestResult

	// Round 1: planned transactions. Every key aboard costs the server a
	// lookup; hits promote LRU recency (also for hitchhikers, per the
	// paper's chosen policy).
	for _, txn := range plan.Transactions {
		srv := c.servers[txn.Server]
		size := 0
		for _, it := range txn.Primary {
			size++
			i := index[it]
			if _, ok := srv.Get(it); ok {
				obtained[i] = true
			} else {
				res.Misses++
			}
		}
		for _, it := range txn.Hitchhikers {
			size++
			if _, ok := srv.Get(it); ok {
				if j := index[it]; !obtained[j] {
					obtained[j] = true
					c.tally.HitchhikeHit++
				}
			}
		}
		res.Transactions++
		c.loads[txn.Server]++
		c.itemLoads[txn.Server] += uint64(size)
		perSrv[txn.Server] += size
		c.tally.TxnSize.Add(size)
	}

	// Round 2: bundle still-missing *assigned* items by their acting
	// distinguished server (the distinguished copy itself when its
	// server is up — pinned, so it always hits — else the first
	// surviving replica, which may itself miss). Items without a single
	// surviving replica, and LIMIT-unassigned items, are handled after.
	var missingItems []uint64
	var missingActing []int
	for i := range plan.Items {
		if obtained[i] || plan.ItemServer[i] == -1 {
			continue
		}
		// Assigned items always have a live acting distinguished: their
		// assigned server is live, and the acting server precedes or
		// equals it in the replica walk.
		acting, ok := core.ActingDistinguished(plan.Replicas[i], avoid)
		if !ok {
			return res, fmt.Errorf("cluster: assigned item %d has no live replica", plan.Items[i])
		}
		missingItems = append(missingItems, plan.Items[i])
		missingActing = append(missingActing, acting)
	}
	for _, txn := range core.SecondRound(missingItems, missingActing) {
		srv := c.servers[txn.Server]
		for _, it := range txn.Primary {
			i := index[it]
			if _, ok := srv.Get(it); ok {
				obtained[i] = true
				continue
			}
			if txn.Server == plan.Replicas[i][0] {
				// Invariant violation: true distinguished copies are pinned.
				return res, fmt.Errorf("cluster: distinguished copy of item %d missing on server %d",
					it, txn.Server)
			}
			// Acting distinguished (survivor) missed too: the store.
			c.tally.DBFetches++
			obtained[i] = true
			srv.Put(it, struct{}{}, 1, false)
		}
		res.Transactions++
		res.Round2++
		c.loads[txn.Server]++
		c.itemLoads[txn.Server] += uint64(len(txn.Primary))
		perSrv[txn.Server] += len(txn.Primary)
		c.tally.TxnSize.Add(len(txn.Primary))
	}

	// Unassigned-but-needed items: the cache tier cannot serve them —
	// under a full fetch an unassigned item means every replica server
	// is down; under a LIMIT plan the planner may also have stopped
	// short of the target because failures shrank the candidate sets.
	// Either way the authoritative store makes up the difference.
	target := req.Target
	if target <= 0 || target > m {
		target = m
	}
	obtainedCount := 0
	for _, ok := range obtained {
		if ok {
			obtainedCount++
		}
	}
	for i := range plan.Items {
		if obtainedCount >= target {
			break
		}
		if obtained[i] || plan.ItemServer[i] != -1 {
			continue
		}
		c.tally.DBFetches++
		obtained[i] = true
		obtainedCount++
	}

	// Write-back: repopulate the assigned replica of each item that
	// missed there, so the physical layout adapts to the workload.
	if !c.cfg.SkipWriteBack {
		for i, it := range plan.Items {
			if plan.ItemServer[i] == -1 || !obtained[i] {
				continue
			}
			srv := c.servers[plan.ItemServer[i]]
			if !srv.Contains(it) {
				srv.Put(it, struct{}{}, 1, false)
			}
		}
	}

	for _, ok := range obtained {
		if ok {
			res.Obtained++
		}
	}
	for _, keys := range perSrv {
		if keys > res.Bottleneck {
			res.Bottleneck = keys
		}
	}
	c.tally.Requests++
	c.tally.Transactions += uint64(res.Transactions)
	c.tally.Round2 += uint64(res.Round2)
	c.tally.ItemsWanted += uint64(m)
	c.tally.ItemsFetched += uint64(res.Obtained)
	c.tally.Misses += uint64(res.Misses)
	c.tally.TPRHist.Add(res.Transactions)
	c.tally.BottleneckHist.Add(res.Bottleneck)
	return res, nil
}

// Run executes n requests from gen, returning the first error.
func (c *Cluster) Run(gen workload.Generator, n int) error {
	for i := 0; i < n; i++ {
		if _, err := c.Do(gen.Next()); err != nil {
			return err
		}
	}
	return nil
}
