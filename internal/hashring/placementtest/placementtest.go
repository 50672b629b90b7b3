// Package placementtest is the shared contract test for
// hashring.Placement implementations. Every placement in the repo —
// ranged consistent hashing, multi-hash, jump, the
// adaptive hot-key wrapper, and the CBC construction — must hold the
// same invariants; running them through one battery keeps the contract
// in one place instead of re-asserted ad hoc per implementation.
package placementtest

import (
	"testing"

	"rnb/internal/hashring"
)

// Run asserts the Placement contract over items [0, items):
//
//   - at least min(NumReplicas, NumServers) entries per item
//     (implementations may return more, e.g. boosted hot keys);
//   - every entry in [0, NumServers) and entries pairwise distinct;
//   - deterministic: consecutive calls return identical slices;
//   - entry 0 (the distinguished copy) stable under repeated calls —
//     re-verified at the end of the sweep, after every other item has
//     been placed in between.
func Run(t *testing.T, p hashring.Placement, items int) {
	t.Helper()
	if p.NumServers() < 1 {
		t.Fatalf("NumServers() = %d, want >= 1", p.NumServers())
	}
	if p.NumReplicas() < 1 {
		t.Fatalf("NumReplicas() = %d, want >= 1", p.NumReplicas())
	}
	minLen := p.NumReplicas()
	if p.NumServers() < minLen {
		minLen = p.NumServers()
	}
	distinguished := make([]int, items)
	var buf []int
	for item := 0; item < items; item++ {
		buf = p.Replicas(uint64(item), buf)
		if len(buf) < minLen {
			t.Fatalf("item %d: %d replicas, want >= min(replicas, servers) = %d",
				item, len(buf), minLen)
		}
		seen := make(map[int]bool, len(buf))
		for _, s := range buf {
			if s < 0 || s >= p.NumServers() {
				t.Fatalf("item %d: server index %d out of [0, %d)", item, s, p.NumServers())
			}
			if seen[s] {
				t.Fatalf("item %d: duplicate server in %v", item, buf)
			}
			seen[s] = true
		}
		again := p.Replicas(uint64(item), nil)
		if len(again) != len(buf) {
			t.Fatalf("item %d: non-deterministic length: %d then %d", item, len(buf), len(again))
		}
		for i := range buf {
			if buf[i] != again[i] {
				t.Fatalf("item %d: non-deterministic placement: %v then %v", item, buf, again)
			}
		}
		distinguished[item] = buf[0]
	}
	for item := 0; item < items; item++ {
		buf = p.Replicas(uint64(item), buf)
		if buf[0] != distinguished[item] {
			t.Fatalf("item %d: distinguished copy moved: %d then %d",
				item, distinguished[item], buf[0])
		}
	}
}
