package topology

import (
	"fmt"
	"math/rand"
	"testing"

	"rnb/internal/hashring"
)

func TestUnionSingleEpochTransparent(t *testing.T) {
	base := hashring.NewRCHPlacement(hashring.NewIndexed(32, []string{"a", "b", "c", "d"}), 3)
	u := NewUnion(4, base)
	for item := uint64(0); item < 200; item++ {
		got := u.Replicas(item, nil)
		want := base.Replicas(item, nil)
		if len(got) != len(want) {
			t.Fatalf("item %d: union %v != base %v", item, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("item %d: union %v != base %v", item, got, want)
			}
		}
	}
}

func TestUnionSupersetOnResize(t *testing.T) {
	old := hashring.NewRCHPlacement(hashring.NewIndexed(32, []string{"a", "b", "c", "d"}), 3)
	// Epoch 2 adds "e": same stable index space, one more live server.
	next := hashring.NewRCHPlacement(hashring.NewIndexed(32, []string{"a", "b", "c", "d", "e"}), 3)
	u := NewUnion(5, old, next)

	for item := uint64(0); item < 500; item++ {
		got := u.Replicas(item, nil)
		oldSet := old.Replicas(item, nil)
		newSet := next.Replicas(item, nil)
		// Old distinguished copy stays entry 0: it is the pinned,
		// guaranteed-present replica during the transition.
		if got[0] != oldSet[0] {
			t.Fatalf("item %d: entry 0 = %d, want old distinguished %d", item, got[0], oldSet[0])
		}
		// Union ⊇ old ∪ new, all distinct.
		have := map[int]bool{}
		for _, s := range got {
			if have[s] {
				t.Fatalf("item %d: duplicate server %d in %v", item, s, got)
			}
			have[s] = true
		}
		for _, s := range oldSet {
			if !have[s] {
				t.Fatalf("item %d: union %v missing old replica %d", item, got, s)
			}
		}
		for _, s := range newSet {
			if !have[s] {
				t.Fatalf("item %d: union %v missing new replica %d", item, got, s)
			}
		}
	}
}

// TestTransitionCoverageProperty is the superset-invariant property
// test: across randomized membership-change sequences (mirroring how
// the client layers per-epoch rings), at every intermediate
// epoch, every key's replica coverage under the union of live epochs
// stays at least min(NumReplicas, smallest epoch's live server count) —
// there is never a window in which a key is under-replicated relative
// to what the declared level and the live server count allow.
func TestTransitionCoverageProperty(t *testing.T) {
	const replicas = 3
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		// Start with 3..8 servers. Every epoch builds its own ring from
		// the stable index space, each server at its index and drained
		// ones left as gaps, the way the client builds one per View.
		n := 3 + rng.Intn(6)
		var names []string // by index; "" once drained
		var live []int
		for i := 0; i < n; i++ {
			names = append(names, fmt.Sprintf("s%d:11211", i))
			live = append(live, i)
		}
		epoch := func() hashring.Placement {
			return hashring.NewRCHPlacement(hashring.NewIndexed(32, names), replicas)
		}
		window := []hashring.Placement{epoch()}

		for step := 0; step < 12; step++ {
			if grow := rng.Float64() < 0.5 || len(live) <= 2; grow {
				live = append(live, len(names))
				names = append(names, fmt.Sprintf("s%d:11211", len(names)))
			} else {
				victim := rng.Intn(len(live))
				names[live[victim]] = ""
				live = append(live[:victim], live[victim+1:]...)
			}
			window = append(window, epoch())
			// Epochs retire oldest-first at random, as the transition
			// windows of a real resize storm would.
			for len(window) > 1 && rng.Float64() < 0.3 {
				window = window[1:]
			}

			slots := len(names)
			u := NewUnion(slots, window...)
			wantCover := replicas
			if m := minServers(window); m < wantCover {
				wantCover = m
			}
			oldest := window[0]
			for probe := 0; probe < 100; probe++ {
				item := rng.Uint64()
				got := u.Replicas(item, nil)
				if len(got) < wantCover {
					t.Fatalf("trial %d step %d: item %d covered by %d < %d servers (%v)",
						trial, step, item, len(got), wantCover, got)
				}
				if got[0] != oldest.Replicas(item, nil)[0] {
					t.Fatalf("trial %d step %d: item %d lost its oldest distinguished copy", trial, step, item)
				}
				seen := map[int]bool{}
				for _, s := range got {
					if s < 0 || s >= slots {
						t.Fatalf("trial %d step %d: server %d out of slot space %d", trial, step, s, slots)
					}
					if seen[s] {
						t.Fatalf("trial %d step %d: duplicate server in %v", trial, step, got)
					}
					seen[s] = true
				}
			}
		}
	}
}

func minServers(eps []hashring.Placement) int {
	m := eps[0].NumServers()
	for _, p := range eps[1:] {
		if n := p.NumServers(); n < m {
			m = n
		}
	}
	return m
}
