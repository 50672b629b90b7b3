package topology

import "rnb/internal/hashring"

// Union is the superset-invariant placement that keeps reads correct
// while the tier resizes. It layers the placements of every epoch that
// is still in its transition window, oldest first: an item's replica
// set is the deduplicated concatenation of its replica sets in each
// epoch.
//
// Why oldest first: entry 0 of a Placement is the distinguished copy —
// the replica that is pinned and may never miss. During a transition
// only the OLDEST epoch's distinguished copy carries that guarantee
// (it was pinned before the resize started; the newest epoch's
// distinguished server may be stone cold), so the oldest epoch's walk
// must stay the prefix. Reads therefore consult the union and always
// find data a pre-resize read would have found; the planner is free to
// assign items to new servers, whose round-1 misses recover through
// the usual round-2 distinguished fetch and warm up via write-back.
// Writes invalidate the union, so no epoch's replica can serve stale
// data: a placement change may only ever grow the consulted set
// mid-flight.
//
// A Union over one epoch is transparent (no transition in progress).
type Union struct {
	epochs   []hashring.Placement
	servers  int
	replicas int
}

// NewUnion builds a union over the given epoch placements (oldest
// first; at least one). servers is the slot-index space size — the
// total number of server indices ever allocated — which may exceed any
// single epoch's live count.
func NewUnion(servers int, epochs ...hashring.Placement) *Union {
	if len(epochs) == 0 {
		panic("topology: union needs at least one epoch")
	}
	replicas := 0
	for _, p := range epochs {
		if r := p.NumReplicas(); r > replicas {
			replicas = r
		}
	}
	return &Union{epochs: epochs, servers: servers, replicas: replicas}
}

// Replicas implements hashring.Placement: the deduplicated
// concatenation of the item's replica set in every epoch, oldest
// epoch's distinguished copy first.
func (u *Union) Replicas(item uint64, buf []int) []int {
	out := u.epochs[0].Replicas(item, buf)
	if len(u.epochs) == 1 {
		return out
	}
	var scratch [8]int
	for _, p := range u.epochs[1:] {
		for _, s := range p.Replicas(item, scratch[:0]) {
			dup := false
			for _, have := range out {
				if have == s {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, s)
			}
		}
	}
	return out
}

// NumServers implements hashring.Placement: the slot-index space size.
func (u *Union) NumServers() int { return u.servers }

// NumReplicas implements hashring.Placement: the maximum declared
// level across epochs.
func (u *Union) NumReplicas() int { return u.replicas }

// Epochs returns the number of layered epochs (1 = no transition).
func (u *Union) Epochs() int { return len(u.epochs) }

var _ hashring.Placement = (*Union)(nil)
