// Package cbc implements replica placement as a Combinatorial Batch
// Code (CBC): a set system over the servers in which *any* k-item
// request can be served reading at most t items from each server — a
// provable worst-case load bound, where the paper's pseudo-random
// placement only balances load in expectation.
//
// The construction is the replication-based "dual set system" CBC of
// Paterson–Stinson–Wei, extended to the multiset regime of
// Zhang–Yaakobi–Silberstein when the item universe outgrows the number
// of available server subsets:
//
//   - every item class is stored on an r-subset of the m servers;
//   - the subsets assigned to classes are pairwise DISTINCT as long as
//     the class count n fits in C(m, r) (the exact CBC range);
//   - beyond that, subsets repeat with multiplicity at most
//     c = ceil(n / subsets-used), kept perfectly balanced — the greedy
//     t-minimizing fallback: no subset, and hence no server union, is
//     ever loaded more than its fair share of classes.
//
// Distinctness is what bounds the adversary. Any u servers fully
// contain at most c·C(u, r) classes, so j request items can be confined
// to a u-server union only if c·C(u, r) >= j; by the defect form of
// Hall's theorem the optimal assignment (internal/core's
// HintBalanceLoad planner path) then reads at most
//
//	T(k) = max_{j<=k} ceil(j / u_min(j)),  u_min(j) = min{u : c·C(u,r) >= j}
//
// items per server for any request of k distinct classes. Guarantee
// reports this bound; the package's property tests verify it
// exhaustively over every k-subset of small constructions.
//
// A pseudo-random placement enjoys none of this: with n >> C(m, r),
// birthday collisions make dozens of items share one exact replica set,
// and an adversarial bundle (internal/workload's AdversarialGenerator)
// concentrates a whole request on r servers.
package cbc

import (
	"fmt"
	"math"
	"sort"

	"rnb/internal/hashring"
	"rnb/internal/xhash"
)

// maxEnum caps the subset count for which the exact greedy-balanced
// ordering (quadratic in the count) is computed; larger spaces fall
// back to seeded distinct sampling, which preserves the distinctness
// guarantee and balances statistically.
const maxEnum = 4096

// maxSampleAttempts bounds rejection sampling per subset slot; giving
// up early only shrinks the subset pool (raising the multiplicity c the
// guarantee is computed from), never breaks the bound.
const maxSampleAttempts = 200

// Placement is a CBC replica placement over a fixed universe of item
// classes. Items map to classes by id mod Classes; the worst-case
// guarantee is stated per distinct class (requests that repeat a class
// are the multiset regime — each repetition re-reads the same
// r-subset). It implements hashring.Placement.
//
//rnb:frozen-after-publish
type Placement struct {
	servers  int
	replicas int // declared level; effective level is min(replicas, servers)
	classes  int
	mult     int     // max classes sharing one subset (1 = exact CBC)
	nsubsets int     // distinct subsets actually used
	sets     [][]int // class -> replica servers, entry 0 distinguished
}

var _ hashring.Placement = (*Placement)(nil)

// New builds a CBC placement of `classes` item classes over `servers`
// servers at replication level `replicas`. seed decorrelates the
// class-to-subset mapping from raw item ids (rotation in the exact
// range, sampling stream otherwise); the construction is deterministic
// per (servers, replicas, classes, seed).
func New(servers, replicas, classes int, seed uint64) *Placement {
	if servers < 1 {
		panic("cbc: need at least one server")
	}
	if replicas < 1 {
		panic("cbc: replication level must be >= 1")
	}
	if classes < 1 {
		panic("cbc: need at least one item class")
	}
	r := replicas
	if r > servers {
		r = servers
	}
	order := subsetOrder(servers, r, classes, seed)

	p := &Placement{
		servers:  servers,
		replicas: replicas,
		classes:  classes,
		nsubsets: len(order),
		mult:     (classes + len(order) - 1) / len(order),
	}
	// Assign classes round-robin through the subset order (multiplicity
	// stays within 1 of even) and rotate the distinguished member to the
	// least-pinned server so the pinned-copy memory load balances too.
	off := int(seed % uint64(len(order)))
	distLoad := make([]int, servers)
	p.sets = make([][]int, classes)
	flat := make([]int, classes*r) // one backing array, cache-friendly
	for i := 0; i < classes; i++ {
		sub := order[(i+off)%len(order)]
		set := flat[i*r : i*r : (i+1)*r]
		d, dn := sub[0], distLoad[sub[0]]
		for _, s := range sub[1:] {
			if distLoad[s] < dn {
				d, dn = s, distLoad[s]
			}
		}
		distLoad[d]++
		set = append(set, d)
		for _, s := range sub {
			if s != d {
				set = append(set, s)
			}
		}
		p.sets[i] = set
	}
	return p
}

// subsetOrder produces the distinct r-subsets classes are assigned to,
// in an order whose prefixes keep per-server load balanced.
func subsetOrder(m, r, classes int, seed uint64) [][]int {
	total := combin(m, r)
	if total <= maxEnum {
		return balancedOrder(enumerate(m, r), m)
	}
	// The subset space is too large to enumerate: sample distinct
	// subsets from a seeded hash stream. Classes beyond the pool cycle
	// through it (multiplicity > 1), exactly as in the exact range.
	want := classes
	if want > maxEnum*16 {
		want = maxEnum * 16
	}
	seen := make(map[string]bool, want)
	out := make([][]int, 0, want)
	var ctr uint64
	for len(out) < want {
		var sub []int
		found := false
		for attempt := 0; attempt < maxSampleAttempts; attempt++ {
			sub = sampleSubset(m, r, seed, &ctr)
			key := subsetKey(sub)
			if !seen[key] {
				seen[key] = true
				found = true
				break
			}
		}
		if !found {
			break // pool nearly exhausted; multiplicity absorbs the rest
		}
		out = append(out, sub)
	}
	return out
}

// sampleSubset draws one sorted r-subset of [0, m) from the seeded
// hash stream, advancing *ctr.
func sampleSubset(m, r int, seed uint64, ctr *uint64) []int {
	sub := make([]int, 0, r)
	for len(sub) < r {
		*ctr++
		s := int(xhash.Seeded(seed, *ctr) % uint64(m))
		dup := false
		for _, prev := range sub {
			if prev == s {
				dup = true
				break
			}
		}
		if !dup {
			sub = append(sub, s)
		}
	}
	sort.Ints(sub)
	return sub
}

func subsetKey(sub []int) string {
	b := make([]byte, 0, len(sub)*2)
	for _, s := range sub {
		b = append(b, byte(s), byte(s>>8))
	}
	return string(b)
}

// enumerate lists every r-subset of [0, m) in lexicographic order.
func enumerate(m, r int) [][]int {
	var out [][]int
	idx := make([]int, r)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		i := r - 1
		for i >= 0 && idx[i] == m-r+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < r; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// balancedOrder greedily orders subsets so that every prefix spreads
// server usage as evenly as possible: each step picks the subset whose
// members are currently least used (smallest max count, then smallest
// sum, then lexicographic rank). Quadratic, gated by maxEnum.
func balancedOrder(all [][]int, m int) [][]int {
	counts := make([]int, m)
	used := make([]bool, len(all))
	out := make([][]int, 0, len(all))
	for len(out) < len(all) {
		best, bestMax, bestSum := -1, math.MaxInt, math.MaxInt
		for j, sub := range all {
			if used[j] {
				continue
			}
			mx, sum := 0, 0
			for _, s := range sub {
				sum += counts[s]
				if counts[s] > mx {
					mx = counts[s]
				}
			}
			if mx < bestMax || (mx == bestMax && sum < bestSum) {
				best, bestMax, bestSum = j, mx, sum
			}
		}
		used[best] = true
		out = append(out, all[best])
		for _, s := range all[best] {
			counts[s]++
		}
	}
	return out
}

// combin returns C(m, r) clamped to avoid overflow; the clamp is far
// above any count the guarantee computation compares against.
func combin(m, r int) int {
	if r < 0 || r > m {
		return 0
	}
	if r > m-r {
		r = m - r
	}
	const clamp = int(1) << 40
	out := 1
	for i := 1; i <= r; i++ {
		out = out * (m - r + i) / i
		if out > clamp {
			return clamp
		}
	}
	return out
}

// Replicas implements hashring.Placement: the replica set of the
// item's class, distinguished copy first.
func (p *Placement) Replicas(item uint64, buf []int) []int {
	return append(buf[:0], p.sets[item%uint64(p.classes)]...)
}

// NumServers implements hashring.Placement.
func (p *Placement) NumServers() int { return p.servers }

// NumReplicas implements hashring.Placement.
func (p *Placement) NumReplicas() int { return p.replicas }

// Classes returns the size of the class universe the code is built
// over.
func (p *Placement) Classes() int { return p.classes }

// Multiplicity returns the maximum number of classes sharing one exact
// replica subset (1 in the exact CBC range).
func (p *Placement) Multiplicity() int { return p.mult }

// Exact reports whether the construction is in the exact CBC range:
// every class on a distinct server subset (multiplicity 1).
func (p *Placement) Exact() bool { return p.mult == 1 }

// Guarantee returns T(k): the provable upper bound on items read from
// any one server when a request of k distinct classes is served by an
// optimal (min-max load) assignment — e.g. the planner's
// HintBalanceLoad path. The bound follows from distinctness: any u
// servers fully contain at most mult·C(u, r) classes, so by the defect
// form of Hall's theorem the optimal max load is
// max_j ceil(j / u_min(j)) over j <= k.
func (p *Placement) Guarantee(k int) int {
	if k <= 0 {
		return 0
	}
	if k > p.classes {
		k = p.classes
	}
	r := p.replicas
	if r > p.servers {
		r = p.servers
	}
	t := 1
	for j := 1; j <= k; j++ {
		u := r
		for u < p.servers && p.mult*combin(u, r) < j {
			u++
		}
		if tj := (j + u - 1) / u; tj > t {
			t = tj
		}
	}
	return t
}

// String summarizes the code's parameters.
func (p *Placement) String() string {
	kind := "multiset"
	if p.Exact() {
		kind = "exact"
	}
	return fmt.Sprintf("cbc(%s: n=%d classes, m=%d servers, r=%d, %d subsets, mult %d)",
		kind, p.classes, p.servers, p.replicas, p.nsubsets, p.mult)
}
