// Package setcover implements the minimum-set-cover heuristics RnB uses
// for bundling (paper §III-A, §IV).
//
// A request for M items, each of which has replicas on several servers,
// induces a set-cover instance: the universe is the request's items and
// each candidate set is "the requested items that server s holds".
// Finding the minimum number of servers is NP-complete, so RnB uses the
// classical greedy approximation — repeatedly pick the server covering
// the most remaining items — which runs in (near-)linear time on bit
// sets and is, per the paper's simulations, nearly optimal on the
// workloads of interest.
//
// The package also provides:
//   - partial cover for "LIMIT"-style requests (§III-F): stop picking
//     servers once a target fraction of the items is covered,
//   - an exact branch-and-bound solver for small instances, used as a
//     test oracle and for ablation benchmarks.
package setcover

import (
	"math"

	"rnb/internal/bitset"
)

// Result is the outcome of a cover computation.
type Result struct {
	// Picked holds the indices of the chosen sets in pick order.
	Picked []int
	// Covered is the number of universe elements covered by Picked.
	Covered int
}

// Scratch is the eager greedy heuristics' working memory — the set of
// still-uncovered elements and the pick list — kept by a caller that
// runs many covers, so that steady-state covering allocates nothing. A
// Result it returns aliases its pick list: valid until the scratch's
// next cover. A Scratch is not safe for concurrent use.
type Scratch struct {
	remaining bitset.Set
	picked    []int
}

// Greedy computes a cover of universe using the classical greedy
// heuristic: at each step pick the set with the largest intersection
// with the still-uncovered elements (ties broken by lowest index, for
// determinism). It stops when the universe is covered or no candidate
// adds coverage, so it also handles uncoverable instances gracefully.
func Greedy(universe *bitset.Set, sets []*bitset.Set) Result {
	return GreedyPartial(universe, sets, universe.Count())
}

// GreedyPartial is Greedy that stops as soon as at least target
// universe elements are covered. This is the LIMIT-clause planner of
// §III-F: the greedy loop simply ceases to pick servers after enough
// items are covered. A target <= 0 returns an empty result; a target
// larger than the universe is clamped.
func GreedyPartial(universe *bitset.Set, sets []*bitset.Set, target int) Result {
	return new(Scratch).GreedyPartial(universe, sets, target)
}

// GreedyPartial is the package-level GreedyPartial on sc's memory.
func (sc *Scratch) GreedyPartial(universe *bitset.Set, sets []*bitset.Set, target int) Result {
	total := universe.Count()
	if target > total {
		target = total
	}
	if target <= 0 {
		return Result{}
	}
	return sc.greedy(universe, sets, target, math.MaxInt)
}

// greedy is the eager loop behind GreedyPartial and GreedyBudget: pick
// the best set until target elements are covered, maxPicks sets are
// picked, or nothing left adds coverage.
func (sc *Scratch) greedy(universe *bitset.Set, sets []*bitset.Set, target, maxPicks int) Result {
	remaining := &sc.remaining
	remaining.CopyFrom(universe)
	res := Result{Picked: sc.picked[:0]}
	for res.Covered < target && len(res.Picked) < maxPicks {
		best, bestGain := -1, 0
		for i, s := range sets {
			if g := remaining.IntersectionCount(s); g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			break // nothing left covers anything
		}
		res.Picked = append(res.Picked, best)
		res.Covered += bestGain
		remaining.DifferenceWith(sets[best])
	}
	sc.picked = res.Picked
	return res
}

// GreedyBudget runs the greedy heuristic but stops after at most
// maxPicks sets, maximizing coverage within a transaction budget. This
// is the "fetch as many items as possible within X" request form of
// §III-F (studied in the companion thesis): the budget is on server
// transactions rather than on items. maxPicks <= 0 returns an empty
// result.
func GreedyBudget(universe *bitset.Set, sets []*bitset.Set, maxPicks int) Result {
	return new(Scratch).GreedyBudget(universe, sets, maxPicks)
}

// GreedyBudget is the package-level GreedyBudget on sc's memory.
func (sc *Scratch) GreedyBudget(universe *bitset.Set, sets []*bitset.Set, maxPicks int) Result {
	if maxPicks <= 0 {
		return Result{}
	}
	return sc.greedy(universe, sets, math.MaxInt, maxPicks)
}

// Exact finds a minimum cover by branch and bound. It returns ok=false
// if the universe cannot be fully covered by the given sets. maxSets,
// when > 0, additionally restricts solutions to at most that many sets
// (ok=false if none exists within the bound). Exponential in the worst
// case — use only on small instances (test oracle, ablations).
func Exact(universe *bitset.Set, sets []*bitset.Set, maxSets int) (Result, bool) {
	total := universe.Count()
	if total == 0 {
		return Result{}, true
	}
	// Seed the incumbent with greedy; it also tells us whether the
	// instance is coverable at all.
	incumbent := Greedy(universe, sets)
	if incumbent.Covered < total {
		return Result{}, false
	}
	bestLen := len(incumbent.Picked)
	bestPicked := append([]int(nil), incumbent.Picked...)

	maxSetSize := 0
	for _, s := range sets {
		if c := s.Count(); c > maxSetSize {
			maxSetSize = c
		}
	}

	var cur []int
	var dfs func(remaining *bitset.Set)
	dfs = func(remaining *bitset.Set) {
		if remaining.Empty() {
			if len(cur) < bestLen {
				bestLen = len(cur)
				bestPicked = append(bestPicked[:0], cur...)
			}
			return
		}
		// Lower bound: even perfectly sized sets need this many more picks.
		need := (remaining.Count() + maxSetSize - 1) / maxSetSize
		if len(cur)+need >= bestLen {
			return
		}
		// Branch on the sets containing the lowest uncovered element —
		// every valid cover must include one of them.
		elem, _ := remaining.NextSet(0)
		for i, s := range sets {
			if !s.Test(elem) {
				continue
			}
			save := remaining.Clone()
			remaining.DifferenceWith(s)
			cur = append(cur, i)
			dfs(remaining)
			cur = cur[:len(cur)-1]
			remaining.CopyFrom(save)
		}
	}
	dfs(universe.Clone())

	if maxSets > 0 && bestLen > maxSets {
		return Result{}, false
	}
	return Result{Picked: bestPicked, Covered: total}, true
}
