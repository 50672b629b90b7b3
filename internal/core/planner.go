// Package core implements the RnB planner: the client-side algorithm
// that turns a multi-item request into a minimal set of per-server
// transactions (paper §III).
//
// Given the replica locations of every requested item (from a
// hashring.Placement), the planner runs the greedy minimum-set-cover
// heuristic to choose which servers to contact, assigns each item to
// the first chosen server holding one of its replicas, and optionally
//
//   - redirects items that would travel alone to their *distinguished*
//     copy, so single-item fetches never pollute other servers' LRU
//     caches (§III-C-1),
//   - piggybacks "hitchhiker" copies of requested items onto
//     transactions that are already being sent to a server holding one
//     of their replicas (§III-C-2), raising the hit probability under
//     overbooking at zero transaction cost,
//   - stops covering once a LIMIT target is reached (§III-F).
//
// The planner is stateless and deterministic: equal requests yield
// equal plans, which is what creates the request-locality effect the
// paper's overbooking relies on (fig. 7) — similar requests keep using
// the same replicas, so the unused ones go cold and get evicted.
package core

import (
	"fmt"
	"sort"
	"sync"

	"rnb/internal/bitset"
	"rnb/internal/hashring"
	"rnb/internal/setcover"
	"rnb/internal/xhash"
)

// buildScratch holds the transient state of one buildFiltered call so
// steady-state plan building stays off the allocator: maps keyed by
// server id become slices indexed by server id, candidate bitsets are
// recycled through a freelist, and the dup-check map is cleared rather
// than remade. Only memory that escapes into the returned Plan (the
// plan itself, ItemServer, Replicas and their slabs, Transactions) is
// freshly allocated. Scratches are pooled because planners are shared
// by concurrent requests.
type buildScratch struct {
	seen     map[uint64]struct{}
	byServer []*bitset.Set // server id -> candidate item set (nil = untouched)
	touched  []int         // server ids with a non-nil byServer entry
	freelist []*bitset.Set // recycled candidate sets
	servers  []int         // sorted touched ids, parallel to sets
	sets     []*bitset.Set
	universe *bitset.Set
	txnOf    []int // server id -> transaction index + 1 (0 = none)
	cnt      []int // transaction index -> primary count
	indexOf  map[uint64]int
}

var scratchPool = sync.Pool{New: func() interface{} {
	return &buildScratch{
		seen:     make(map[uint64]struct{}),
		universe: &bitset.Set{},
		indexOf:  make(map[uint64]int),
	}
}}

// ensure grows the server-indexed tables to cover server id s.
func (sc *buildScratch) ensure(s int) {
	for len(sc.byServer) <= s {
		sc.byServer = append(sc.byServer, nil)
		sc.txnOf = append(sc.txnOf, 0)
	}
}

// candidates returns the (possibly new) candidate set for server s.
func (sc *buildScratch) candidates(s int) *bitset.Set {
	sc.ensure(s)
	if set := sc.byServer[s]; set != nil {
		return set
	}
	var set *bitset.Set
	if n := len(sc.freelist); n > 0 {
		set = sc.freelist[n-1]
		sc.freelist = sc.freelist[:n-1]
		set.Reset()
	} else {
		set = &bitset.Set{}
	}
	sc.byServer[s] = set
	sc.touched = append(sc.touched, s)
	return set
}

// maxPooledItems bounds the request size whose scratch goes back to the
// pool. A hub request (16 000 keys) grows the item-indexed maps and
// bitsets to its own size, and clearing them is then what every later
// small build pays until a GC empties the pool; such a scratch is left
// to the collector instead.
const maxPooledItems = 1024

// release returns the scratch to the pool, recycling candidate sets and
// zeroing the server-indexed tables for the next build.
func (sc *buildScratch) release() {
	if len(sc.seen) > maxPooledItems {
		return
	}
	for _, s := range sc.touched {
		sc.freelist = append(sc.freelist, sc.byServer[s])
		sc.byServer[s] = nil
		sc.txnOf[s] = 0
	}
	sc.touched = sc.touched[:0]
	sc.servers = sc.servers[:0]
	sc.sets = sc.sets[:0]
	sc.cnt = sc.cnt[:0]
	clear(sc.seen)
	clear(sc.indexOf)
	scratchPool.Put(sc)
}

// PlanHint selects the item→server assignment strategy.
type PlanHint int

const (
	// HintMinTransactions is the paper's strategy: greedy minimum set
	// cover, fewest round-1 transactions, per-server load unbounded.
	HintMinTransactions PlanHint = iota
	// HintBalanceLoad assigns items by bipartite b-matching so the
	// maximum items read from any one server is minimized (see
	// BalancedAssign). Paired with a Combinatorial Batch Code placement
	// (internal/cbc) this achieves the code's provable ≤ t worst-case
	// bound, which greedy set cover does not. Transactions-per-request
	// rises (a consolidation pass claws most of it back); applies to
	// full fetches only — LIMIT (target < items) and budget plans fall
	// back to the cover path, and DistinguishedSingles redirection is
	// skipped because re-homing a single onto its distinguished server
	// would break the load bound.
	HintBalanceLoad
)

// Options configures plan construction.
type Options struct {
	// Hitchhike piggybacks redundant item requests onto transactions
	// already planned for other items (§III-C-2).
	Hitchhike bool
	// DistinguishedSingles redirects any item that would be fetched in
	// a single-item transaction to its distinguished copy (§III-C-1).
	DistinguishedSingles bool
	// BalanceTieBreak rotates the candidate-server ordering by a
	// per-request fingerprint instead of always preferring low server
	// ids. Identical requests still produce identical plans, but equal-
	// coverage ties spread across the cluster instead of piling onto
	// server 0 — trading the cross-request replica locality that
	// overbooking exploits (fig. 7) for better load balance and tail
	// latency (cf. the Mitzenmacher load-balancing contrast, §V-A).
	// Leave it off for memory-constrained overbooked deployments; turn
	// it on when memory is plentiful and latency matters.
	BalanceTieBreak bool
	// Cover selects the set-cover heuristic. Nil selects eager greedy.
	Cover CoverFunc
	// Hint selects the assignment strategy (default greedy set cover).
	Hint PlanHint
}

// CoverFunc computes a (partial) set cover; see setcover.GreedyPartial.
type CoverFunc func(universe *bitset.Set, sets []*bitset.Set, target int) setcover.Result

// Transaction is one planned server round-trip.
type Transaction struct {
	// Server is the destination server index.
	Server int
	// Primary holds the items the cover assigned to this server.
	Primary []uint64
	// Hitchhikers holds extra requested items that have a logical
	// replica on this server but are primarily fetched elsewhere (or
	// were dropped by a LIMIT plan).
	Hitchhikers []uint64
}

// Size returns the number of items carried by the transaction.
func (t *Transaction) Size() int { return len(t.Primary) + len(t.Hitchhikers) }

// Plan is the planned round-1 fetch for a request.
type Plan struct {
	// Transactions lists one entry per contacted server, in pick order.
	Transactions []Transaction
	// Items echoes the request's item ids.
	Items []uint64
	// ItemServer[i] is the server assigned to fetch Items[i], or -1 if
	// the item was dropped by a LIMIT plan.
	ItemServer []int
	// Replicas[i] is the logical replica set of Items[i]; Replicas[i][0]
	// is the distinguished copy.
	Replicas [][]int
	// Assigned counts items with an assigned server.
	Assigned int
}

// NumTransactions returns the number of planned round-1 transactions.
func (p *Plan) NumTransactions() int { return len(p.Transactions) }

// Planner builds fetch plans against a fixed replica placement.
type Planner struct {
	placement hashring.Placement
	opts      Options
	cover     CoverFunc
}

// NewPlanner builds a planner over the given placement.
func NewPlanner(p hashring.Placement, opts Options) *Planner {
	cover := opts.Cover
	if cover == nil {
		cover = setcover.GreedyPartial
	}
	return &Planner{placement: p, opts: opts, cover: cover}
}

// Placement returns the planner's placement.
func (p *Planner) Placement() hashring.Placement { return p.placement }

// Options returns the planner's options.
func (p *Planner) Options() Options { return p.opts }

// Build plans a fetch of items with the given LIMIT target (target <= 0
// or >= len(items) means fetch everything). Duplicate items are
// rejected: requests are sets.
func (p *Planner) Build(items []uint64, target int) (*Plan, error) {
	return p.buildFiltered(items, target, 0, nil)
}

// BuildAvoiding is Build with a server filter: candidate servers for
// which avoid returns true (failed, draining, overloaded) are excluded
// from the plan. Items whose every replica is avoided end up
// unassigned (ItemServer -1) — callers fall back to the authoritative
// store for those. The distinguished-single redirect targets the first
// non-avoided replica (the "acting distinguished").
func (p *Planner) BuildAvoiding(items []uint64, target int, avoid func(server int) bool) (*Plan, error) {
	return p.buildFiltered(items, target, 0, avoid)
}

// BuildExcluding is BuildAvoiding with an additional explicit
// exclusion set: servers in exclude are never candidates, on top of
// whatever avoid rejects. This is the mid-request re-plan entry point —
// when a round-1 transaction fails, the still-missing items are
// re-covered over the surviving servers, and the server that just
// failed must be excluded *immediately*, even if the shared failure
// view (circuit breaker) has not opened yet (e.g. its trip threshold
// is above one).
func (p *Planner) BuildExcluding(items []uint64, target int, exclude map[int]bool, avoid func(server int) bool) (*Plan, error) {
	combined := avoid
	if len(exclude) > 0 {
		combined = func(s int) bool {
			return exclude[s] || (avoid != nil && avoid(s))
		}
	}
	return p.buildFiltered(items, target, 0, combined)
}

// BuildBudget plans a fetch that maximizes item coverage within at most
// maxTransactions round-1 transactions — the "fetch as many items as
// possible within a budget" request form (§III-F, thesis variant).
// maxTransactions <= 0 yields an empty plan. avoid filters candidate
// servers as in BuildAvoiding, so the budget is never spent on a server
// known to be down.
func (p *Planner) BuildBudget(items []uint64, maxTransactions int, avoid func(server int) bool) (*Plan, error) {
	if maxTransactions <= 0 {
		return &Plan{Items: items}, nil
	}
	return p.buildFiltered(items, len(items), maxTransactions, avoid)
}

func (p *Planner) buildFiltered(items []uint64, target, budget int, avoid func(int) bool) (*Plan, error) {
	m := len(items)
	if m == 0 {
		return &Plan{}, nil
	}
	if target <= 0 || target > m {
		target = m
	}
	sc := scratchPool.Get().(*buildScratch)
	for _, it := range items {
		if _, dup := sc.seen[it]; dup {
			sc.release()
			return nil, fmt.Errorf("core: duplicate item %d in request", it)
		}
		sc.seen[it] = struct{}{}
	}

	plan := &Plan{
		Items:      items,
		ItemServer: make([]int, m),
		Replicas:   make([][]int, m),
	}

	if p.opts.Hint == HintBalanceLoad && budget == 0 && target == m {
		sc.release()
		return p.buildBalanced(plan, avoid), nil
	}

	// Locate all replicas and group request items by candidate server,
	// excluding avoided (failed/draining) servers from candidacy. The
	// replica lists escape into the Plan, so they are carved from one
	// per-build slab instead of allocated per item (Placement.Replicas
	// fills buf[:0] in place; a boosted item overflowing its carve simply
	// reallocates).
	rcap := p.placement.NumReplicas()
	if n := p.placement.NumServers(); rcap > n {
		rcap = n
	}
	if rcap < 1 {
		rcap = 1
	}
	slab := make([]int, m*rcap)
	for i, it := range items {
		plan.ItemServer[i] = -1
		off := i * rcap
		plan.Replicas[i] = p.placement.Replicas(it, slab[off:off:off+rcap])
		for _, s := range plan.Replicas[i] {
			if avoid != nil && avoid(s) {
				continue
			}
			sc.candidates(s).Set(i)
		}
	}

	// Stable candidate ordering (ascending server id) so that greedy
	// tie-breaking is identical across similar requests — the source of
	// the request-locality effect (fig. 7). With BalanceTieBreak the
	// order is rotated by a request fingerprint: still deterministic
	// per request, but ties no longer always favor low server ids.
	sc.servers = append(sc.servers[:0], sc.touched...)
	servers := sc.servers
	sort.Ints(servers)
	if p.opts.BalanceTieBreak && p.placement.NumServers() > 0 {
		var fp uint64
		for _, it := range items {
			fp ^= xhash.Uint64(it)
		}
		offset := int(xhash.Mix64(fp) % uint64(p.placement.NumServers()))
		n := p.placement.NumServers()
		sort.Slice(servers, func(a, b int) bool {
			ra := (servers[a] - offset + n) % n
			rb := (servers[b] - offset + n) % n
			return ra < rb
		})
	}
	for _, s := range servers {
		sc.sets = append(sc.sets, sc.byServer[s])
	}
	sets := sc.sets

	sc.universe.Reset()
	universe := sc.universe
	for i := 0; i < m; i++ {
		universe.Set(i)
	}
	var res setcover.Result
	if budget > 0 {
		res = setcover.GreedyBudget(universe, sets, budget)
	} else {
		res = p.cover(universe, sets, target)
	}

	// Assign each item to the first picked server that holds it: one
	// pass marks ItemServer and counts per-transaction primaries, then
	// the Primary slices are carved from a single slab and filled in
	// ascending item order (identical ordering to the historical
	// append-per-pick construction).
	plan.Transactions = make([]Transaction, 0, len(res.Picked))
	for _, pick := range res.Picked {
		s := servers[pick]
		ti := len(plan.Transactions)
		sc.txnOf[s] = ti + 1
		sc.cnt = append(sc.cnt, 0)
		plan.Transactions = append(plan.Transactions, Transaction{Server: s})
		sets[pick].ForEach(func(i int) bool {
			if plan.ItemServer[i] < 0 {
				plan.ItemServer[i] = s
				sc.cnt[ti]++
				plan.Assigned++
			}
			return true
		})
	}
	primSlab := make([]uint64, plan.Assigned)
	off := 0
	for ti := range plan.Transactions {
		c := sc.cnt[ti]
		plan.Transactions[ti].Primary = primSlab[off : off : off+c]
		off += c
	}
	for i := 0; i < m; i++ {
		if s := plan.ItemServer[i]; s >= 0 {
			t := &plan.Transactions[sc.txnOf[s]-1]
			t.Primary = append(t.Primary, items[i])
		}
	}

	if p.opts.DistinguishedSingles {
		// Under a transaction budget, redirection may only merge into
		// transactions that already exist — creating one would bust the
		// budget.
		p.redirectSingles(plan, sc, budget == 0, avoid)
	}
	if p.opts.Hitchhike {
		p.addHitchhikers(plan)
	}
	sc.release()
	return plan, nil
}

// buildBalanced is the HintBalanceLoad full-fetch path: item→server
// assignment by min-max-load bipartite matching instead of greedy set
// cover. Transactions are emitted in ascending server order (the
// matching has no pick order), so equal requests still yield equal
// plans. DistinguishedSingles is intentionally not applied (it would
// re-concentrate load); Hitchhike composes as usual.
func (p *Planner) buildBalanced(plan *Plan, avoid func(int) bool) *Plan {
	m := len(plan.Items)
	cands := make([][]int, m)
	for i, it := range plan.Items {
		plan.ItemServer[i] = -1
		plan.Replicas[i] = p.placement.Replicas(it, nil)
		for _, s := range plan.Replicas[i] {
			if avoid != nil && avoid(s) {
				continue
			}
			cands[i] = append(cands[i], s)
		}
	}
	assign, _ := BalancedAssign(cands)

	used := make([]int, 0, m)
	txnOf := make(map[int]int)
	for _, s := range assign {
		if s >= 0 {
			if _, ok := txnOf[s]; !ok {
				txnOf[s] = 0
				used = append(used, s)
			}
		}
	}
	sort.Ints(used)
	for ti, s := range used {
		txnOf[s] = ti
		plan.Transactions = append(plan.Transactions, Transaction{Server: s})
	}
	for i, s := range assign {
		if s < 0 {
			continue
		}
		plan.ItemServer[i] = s
		t := &plan.Transactions[txnOf[s]]
		t.Primary = append(t.Primary, plan.Items[i])
		plan.Assigned++
	}
	if p.opts.Hitchhike {
		p.addHitchhikers(plan)
	}
	return plan
}

// redirectSingles moves every single-item transaction's item to its
// distinguished server, merging with an existing transaction to that
// server when possible. Transactions left empty are dropped. When
// allowNew is false, redirects that would require a new transaction
// are skipped. The scratch carries the server->transaction table
// (sc.txnOf, +1-encoded) and a reusable item->index map.
func (p *Planner) redirectSingles(plan *Plan, sc *buildScratch, allowNew bool, avoid func(int) bool) {
	indexOf := sc.indexOf
	for i, it := range plan.Items {
		indexOf[it] = i
	}
	for ti := range plan.Transactions {
		t := &plan.Transactions[ti]
		if len(t.Primary) != 1 {
			continue
		}
		it := t.Primary[0]
		i := indexOf[it]
		dist, ok := ActingDistinguished(plan.Replicas[i], avoid)
		if !ok || dist == t.Server {
			continue // already fetching the distinguished copy
		}
		// The acting distinguished server holds a non-avoided replica, so
		// it is a candidate server and sc.txnOf covers its id — unless
		// avoid, which reads live breaker state, rejected it during the
		// candidate pass and accepts it now. Such a server has no table
		// entry; the single stays where it was assigned.
		if dist >= len(sc.byServer) || sc.byServer[dist] == nil {
			continue
		}
		if dj := sc.txnOf[dist]; dj > 0 {
			t.Primary = t.Primary[:0]
			plan.ItemServer[i] = dist
			plan.Transactions[dj-1].Primary = append(plan.Transactions[dj-1].Primary, it)
			continue
		}
		if !allowNew {
			continue
		}
		t.Primary = t.Primary[:0]
		plan.ItemServer[i] = dist
		sc.txnOf[dist] = len(plan.Transactions) + 1
		plan.Transactions = append(plan.Transactions, Transaction{Server: dist, Primary: []uint64{it}})
	}
	// Compact out transactions emptied by redirection. sc.txnOf is left
	// stale after the compaction, which is safe: redirection is the last
	// consumer of the table in a build.
	kept := plan.Transactions[:0]
	for _, t := range plan.Transactions {
		if len(t.Primary) > 0 {
			kept = append(kept, t)
		}
	}
	plan.Transactions = kept
}

// addHitchhikers appends, to every planned transaction, the other
// requested items that have a logical replica on that server.
func (p *Planner) addHitchhikers(plan *Plan) {
	for ti := range plan.Transactions {
		t := &plan.Transactions[ti]
		for i, it := range plan.Items {
			if plan.ItemServer[i] == t.Server {
				continue // primary here already
			}
			for _, s := range plan.Replicas[i] {
				if s == t.Server {
					t.Hitchhikers = append(t.Hitchhikers, it)
					break
				}
			}
		}
	}
}

// ActingDistinguished returns the first replica server not excluded by
// avoid — the distinguished copy itself when its server is up, else
// the survivor that takes over its role. ok is false when every
// replica is avoided.
func ActingDistinguished(replicas []int, avoid func(int) bool) (server int, ok bool) {
	for _, s := range replicas {
		if avoid == nil || !avoid(s) {
			return s, true
		}
	}
	return 0, false
}

// SecondRound bundles the given missed items into transactions against
// their distinguished servers (§III-D). Distinguished copies are pinned
// and never miss, so one bundled round always completes the request.
// The caller passes the items that were not obtained in round 1 and
// whose distinguished server was not already queried with the item
// aboard; this function only groups them by distinguished server.
// replicas must be parallel to items (replicas[i][0] is the
// distinguished server of items[i]).
func SecondRound(items []uint64, replicas [][]int) []Transaction {
	byServer := make(map[int][]uint64)
	var order []int
	for i, it := range items {
		dist := replicas[i][0]
		if _, ok := byServer[dist]; !ok {
			order = append(order, dist)
		}
		byServer[dist] = append(byServer[dist], it)
	}
	out := make([]Transaction, 0, len(order))
	for _, s := range order {
		out = append(out, Transaction{Server: s, Primary: byServer[s]})
	}
	return out
}
