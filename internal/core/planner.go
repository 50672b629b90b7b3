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

// buildScratch holds the transient state of one BuildInto call so
// steady-state plan building stays off the allocator: maps keyed by
// server id become slices indexed by server id, candidate bitsets are
// recycled through a freelist, the dup-check map is cleared rather
// than remade, and the set cover runs on a setcover.Scratch. What a
// plan keeps lives in the Plan, whose caller decides whether to reuse
// it. Scratches are pooled because planners are shared by concurrent
// requests.
type buildScratch struct {
	seen     map[uint64]struct{}
	byServer []*bitset.Set // server id -> candidate item set (nil = untouched)
	touched  []int         // server ids with a non-nil byServer entry
	freelist []*bitset.Set // recycled candidate sets
	servers  []int         // sorted touched ids, parallel to sets
	sets     []*bitset.Set
	universe bitset.Set
	cover    setcover.Scratch
	txnOf    []int // server id -> transaction index + 1 (0 = none)
	cnt      []int // transaction index -> primary count
	// single[ti] is the item index of transaction ti's primary when the
	// cover gave it exactly one; moved lists the items redirectSingles
	// re-homed, in order, and isMoved marks them.
	single  []int
	moved   []int
	isMoved bitset.Set
}

var scratchPool = sync.Pool{New: func() interface{} {
	return &buildScratch{seen: make(map[uint64]struct{})}
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

// MaxPooledItems bounds the request size whose working memory goes back
// to a pool — the planner's scratch here, a client's per-request record
// in package rnb. A hub request (16 000 keys) grows the item-indexed
// maps and bitsets to its own size, and clearing them is then what
// every later small request pays until a GC empties the pool; such
// memory is left to the collector instead.
const MaxPooledItems = 1024

// release returns the scratch to the pool, recycling candidate sets and
// zeroing the server-indexed tables for the next build.
func (sc *buildScratch) release() {
	if len(sc.seen) > MaxPooledItems {
		return
	}
	for _, s := range sc.touched {
		sc.freelist = append(sc.freelist, sc.byServer[s])
		sc.byServer[s] = nil
		sc.txnOf[s] = 0
	}
	for _, i := range sc.moved {
		sc.isMoved.Clear(i)
	}
	sc.touched = sc.touched[:0]
	sc.servers = sc.servers[:0]
	sc.sets = sc.sets[:0]
	sc.cnt = sc.cnt[:0]
	sc.single = sc.single[:0]
	sc.moved = sc.moved[:0]
	clear(sc.seen)
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

	// The slabs the replica lists, primaries and hitchhikers are carved
	// from, kept for the plan's next BuildInto.
	replicaSlab []int
	primarySlab []uint64
	hitchSlab   []uint64
}

// reset empties the plan for a build of items, keeping every slice's
// capacity: ItemServer and Replicas get one entry per item, to be
// filled in.
func (p *Plan) reset(items []uint64) {
	m := len(items)
	p.Items = items
	p.ItemServer = resize(p.ItemServer, m)
	p.Replicas = resize(p.Replicas, m)
	p.Transactions = p.Transactions[:0]
	p.Assigned = 0
}

// resize returns s with length n, reallocating only when its capacity
// is short. The contents are left for the caller to overwrite.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// NumTransactions returns the number of planned round-1 transactions.
func (p *Plan) NumTransactions() int { return len(p.Transactions) }

// Planner builds fetch plans against a fixed replica placement.
type Planner struct {
	placement hashring.Placement
	opts      Options
}

// NewPlanner builds a planner over the given placement.
func NewPlanner(p hashring.Placement, opts Options) *Planner {
	return &Planner{placement: p, opts: opts}
}

// Placement returns the planner's placement.
func (p *Planner) Placement() hashring.Placement { return p.placement }

// Options returns the planner's options.
func (p *Planner) Options() Options { return p.opts }

// Build plans a fetch of items with the given LIMIT target (target <= 0
// or >= len(items) means fetch everything). Duplicate items are
// rejected: requests are sets.
func (p *Planner) Build(items []uint64, target int) (*Plan, error) {
	return p.BuildInto(new(Plan), items, target, 0, nil)
}

// BuildAvoiding is Build with a server filter: candidate servers for
// which avoid returns true (failed, draining, overloaded) are excluded
// from the plan. Items whose every replica is avoided end up
// unassigned (ItemServer -1) — callers fall back to the authoritative
// store for those. The distinguished-single redirect targets the first
// non-avoided replica (the "acting distinguished").
func (p *Planner) BuildAvoiding(items []uint64, target int, avoid func(server int) bool) (*Plan, error) {
	return p.BuildInto(new(Plan), items, target, 0, avoid)
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
	return p.BuildInto(new(Plan), items, target, 0, combined)
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
	return p.BuildInto(new(Plan), items, len(items), maxTransactions, avoid)
}

// BuildInto is the one planner code path behind Build, BuildAvoiding,
// BuildExcluding and BuildBudget: it plans a fetch of items into plan,
// overwriting whatever plan held and reusing the capacity of its
// slices, and returns plan (nil with the error for a duplicate item).
// target is the LIMIT target as in Build; budget > 0 caps the
// transactions as in BuildBudget, budget 0 plans without a cap; avoid
// filters servers as in BuildAvoiding. The plan aliases items, and a
// caller that reuses it must be done with the previous plan: a build
// into a plan that is kept allocates nothing in steady state, one into
// new(Plan) only the plan's own slices.
func (p *Planner) BuildInto(plan *Plan, items []uint64, target, budget int, avoid func(server int) bool) (*Plan, error) {
	m := len(items)
	if m == 0 {
		plan.reset(nil)
		return plan, nil
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
	plan.reset(items)
	p.locate(plan)

	if p.opts.Hint == HintBalanceLoad && budget == 0 && target == m {
		sc.release()
		p.buildBalanced(plan, avoid)
		return plan, nil
	}

	// Group request items by candidate server, excluding avoided
	// (failed/draining) servers from candidacy.
	for i := range items {
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

	universe := &sc.universe
	universe.Reset()
	for i := 0; i < m; i++ {
		universe.Set(i)
	}
	var res setcover.Result
	switch {
	case budget > 0:
		res = sc.cover.GreedyBudget(universe, sets, budget)
	case p.opts.Cover != nil:
		res = p.opts.Cover(universe, sets, target)
	default:
		res = sc.cover.GreedyPartial(universe, sets, target)
	}

	// Assign each item to the first picked server that holds it: one
	// pass marks ItemServer and counts per-transaction primaries.
	if cap(plan.Transactions) < len(res.Picked) {
		plan.Transactions = make([]Transaction, 0, len(res.Picked))
	}
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
	if p.opts.DistinguishedSingles {
		// Under a transaction budget, redirection may only merge into
		// transactions that already exist — creating one would bust the
		// budget.
		p.redirectSingles(plan, sc, budget == 0, avoid)
	}
	layoutPrimaries(plan, sc)
	if p.opts.Hitchhike {
		p.addHitchhikers(plan)
	}
	sc.release()
	return plan, nil
}

// locate fills every item's replica list, ItemServer -1 (unassigned).
// The lists are carved from the plan's one replica slab instead of
// allocated per item (Placement.Replicas fills buf[:0] in place; a
// boosted item overflowing its carve simply reallocates).
func (p *Planner) locate(plan *Plan) {
	rcap := p.placement.NumReplicas()
	if n := p.placement.NumServers(); rcap > n {
		rcap = n
	}
	if rcap < 1 {
		rcap = 1
	}
	slab := resize(plan.replicaSlab, len(plan.Items)*rcap)
	plan.replicaSlab = slab
	for i, it := range plan.Items {
		plan.ItemServer[i] = -1
		off := i * rcap
		plan.Replicas[i] = p.placement.Replicas(it, slab[off:off:off+rcap])
	}
}

// layoutPrimaries carves every transaction's Primary from the plan's
// primary slab, sized by the per-transaction counts, and fills it: the
// items the cover assigned in ascending item order, then those
// redirectSingles moved in, in the order it moved them — the order the
// historical append-per-pick construction produced. Transactions left
// without a primary by redirection are dropped.
func layoutPrimaries(plan *Plan, sc *buildScratch) {
	slab := resize(plan.primarySlab, plan.Assigned)
	plan.primarySlab = slab
	off := 0
	for ti := range plan.Transactions {
		c := sc.cnt[ti]
		plan.Transactions[ti].Primary = slab[off : off : off+c]
		off += c
	}
	place := func(i int) {
		t := &plan.Transactions[sc.txnOf[plan.ItemServer[i]]-1]
		t.Primary = append(t.Primary, plan.Items[i])
	}
	for i, s := range plan.ItemServer {
		if s >= 0 && !sc.isMoved.Test(i) {
			place(i)
		}
	}
	for _, i := range sc.moved {
		place(i)
	}
	if len(sc.moved) > 0 {
		kept := plan.Transactions[:0]
		for _, t := range plan.Transactions {
			if len(t.Primary) > 0 {
				kept = append(kept, t)
			}
		}
		plan.Transactions = kept
	}
}

// buildBalanced is the HintBalanceLoad full-fetch path: item→server
// assignment by min-max-load bipartite matching instead of greedy set
// cover. Transactions are emitted in ascending server order (the
// matching has no pick order), so equal requests still yield equal
// plans. DistinguishedSingles is intentionally not applied (it would
// re-concentrate load); Hitchhike composes as usual. The plan's replica
// lists are located already.
func (p *Planner) buildBalanced(plan *Plan, avoid func(int) bool) {
	m := len(plan.Items)
	cands := make([][]int, m)
	for i := range plan.Items {
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
}

// redirectSingles moves every single-item transaction's item to its
// distinguished server, merging with an existing transaction to that
// server when possible. When allowNew is false, redirects that would
// require a new transaction are skipped. It works on the scratch's
// per-transaction primary counts (sc.cnt) and server->transaction table
// (sc.txnOf, +1-encoded), before any Primary is laid out: a moved item
// gets its new ItemServer and joins sc.moved, and layoutPrimaries
// appends it to its new transaction and drops the transactions it left
// empty.
func (p *Planner) redirectSingles(plan *Plan, sc *buildScratch, allowNew bool, avoid func(int) bool) {
	sc.single = resize(sc.single, len(plan.Transactions))
	for i, s := range plan.ItemServer {
		if s >= 0 {
			if ti := sc.txnOf[s] - 1; sc.cnt[ti] == 1 {
				sc.single[ti] = i
			}
		}
	}
	for ti, n := 0, len(plan.Transactions); ti < n; ti++ {
		if sc.cnt[ti] != 1 {
			continue
		}
		i := sc.single[ti]
		dist, ok := ActingDistinguished(plan.Replicas[i], avoid)
		if !ok || dist == plan.Transactions[ti].Server {
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
		dj := sc.txnOf[dist]
		if dj == 0 {
			if !allowNew {
				continue
			}
			plan.Transactions = append(plan.Transactions, Transaction{Server: dist})
			sc.cnt = append(sc.cnt, 0)
			dj = len(plan.Transactions)
			sc.txnOf[dist] = dj
		}
		// A transaction this loop has yet to reach stops being a single
		// when an item joins it; one it emptied or appended is never
		// looked at again, so single needs no update.
		sc.cnt[ti] = 0
		sc.cnt[dj-1]++
		plan.ItemServer[i] = dist
		sc.moved = append(sc.moved, i)
		sc.isMoved.Set(i)
	}
}

// addHitchhikers adds, to every planned transaction, the other
// requested items that have a logical replica on that server. The
// lists are carved from the plan's hitchhiker slab, sized for the most
// an unboosted request can have.
func (p *Planner) addHitchhikers(plan *Plan) {
	bound := -plan.Assigned // an item never hitchhikes to its own server
	for i := range plan.Replicas {
		bound += len(plan.Replicas[i])
	}
	hh := plan.hitchSlab[:0]
	if cap(hh) < bound {
		hh = make([]uint64, 0, bound)
	}
	for ti := range plan.Transactions {
		t := &plan.Transactions[ti]
		from := len(hh)
		for i, it := range plan.Items {
			if plan.ItemServer[i] == t.Server {
				continue // primary here already
			}
			for _, s := range plan.Replicas[i] {
				if s == t.Server {
					hh = append(hh, it)
					break
				}
			}
		}
		if len(hh) > from {
			t.Hitchhikers = hh[from:len(hh):len(hh)]
		}
	}
	plan.hitchSlab = hh
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
// aboard; this function only groups them by server. dist must be
// parallel to items: dist[i] is the server round 2 asks for items[i],
// its distinguished copy's (or, that server being down, the acting
// distinguished's). Transactions come in order of first appearance in
// dist, each with its items in request order.
func SecondRound(items []uint64, dist []int) []Transaction {
	return new(Round2).Group(items, dist)
}

// Round2 is SecondRound's working memory, kept by a caller that groups
// one round 2 per request so that steady-state grouping allocates
// nothing. The transactions Group returns alias it: valid until its
// next Group. A Round2 is not safe for concurrent use.
type Round2 struct {
	txns  []Transaction
	slab  []uint64 // the transactions' item lists
	cnt   []int    // transaction index -> item count
	txnOf []int    // server id -> transaction index + 1, zero between Groups
}

// Group is SecondRound on r's memory.
func (r *Round2) Group(items []uint64, dist []int) []Transaction {
	txns, cnt := r.txns[:0], r.cnt[:0]
	for _, s := range dist {
		if s >= len(r.txnOf) {
			r.txnOf = append(r.txnOf, make([]int, s+1-len(r.txnOf))...)
		}
		if r.txnOf[s] == 0 {
			txns = append(txns, Transaction{Server: s})
			cnt = append(cnt, 0)
			r.txnOf[s] = len(txns)
		}
		cnt[r.txnOf[s]-1]++
	}
	slab := resize(r.slab, len(items))
	off := 0
	for ti := range txns {
		txns[ti].Primary = slab[off : off : off+cnt[ti]]
		off += cnt[ti]
	}
	for i, it := range items {
		t := &txns[r.txnOf[dist[i]]-1]
		t.Primary = append(t.Primary, it)
	}
	for _, t := range txns {
		r.txnOf[t.Server] = 0
	}
	r.txns, r.slab, r.cnt = txns, slab, cnt
	return txns
}
