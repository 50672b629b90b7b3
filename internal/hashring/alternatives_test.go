package hashring

import (
	"testing"
	"testing/quick"
)

func altPlacements(servers, replicas int) map[string]Placement {
	return map[string]Placement{
		"jump": NewJumpPlacement(servers, replicas, 1),
	}
}

// Distinctness/range/determinism invariants are covered by the shared
// contract battery in contract_test.go.

func TestAlternativesBalance(t *testing.T) {
	const servers, items, replicas = 16, 20000, 3
	for name, p := range altPlacements(servers, replicas) {
		t.Run(name, func(t *testing.T) {
			counts := make([]int, servers)
			var buf []int
			for item := uint64(0); item < items; item++ {
				buf = p.Replicas(item, buf)
				for _, s := range buf {
					counts[s]++
				}
			}
			mean := items * replicas / servers
			for s, c := range counts {
				if c < mean*3/4 || c > mean*4/3 {
					t.Fatalf("server %d holds %d, mean %d", s, c, mean)
				}
			}
		})
	}
}

func TestAlternativesDeterministicAndClamped(t *testing.T) {
	for name, p := range altPlacements(3, 9) {
		t.Run(name, func(t *testing.T) {
			a := append([]int(nil), p.Replicas(42, nil)...)
			b := p.Replicas(42, nil)
			if len(a) != 3 {
				t.Fatalf("clamp: %d replicas", len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatal("not deterministic")
				}
			}
		})
	}
}

func TestAlternativesPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("jump servers", func() { NewJumpPlacement(0, 1, 1) })
	mustPanic("jump replicas", func() { NewJumpPlacement(1, 0, 1) })
}

func TestJumpHashProperties(t *testing.T) {
	// In range, deterministic.
	for key := uint64(0); key < 1000; key++ {
		b := JumpHash(key, 10)
		if b < 0 || b >= 10 {
			t.Fatalf("bucket %d out of range", b)
		}
		if JumpHash(key, 10) != b {
			t.Fatal("not deterministic")
		}
	}
	// Single bucket.
	if JumpHash(12345, 1) != 0 {
		t.Fatal("single bucket must map to 0")
	}
}

func TestJumpHashMinimalMovement(t *testing.T) {
	// Growing from n to n+1 buckets moves ~1/(n+1) of keys, and only
	// ever onto the new bucket.
	const keys = 20000
	moved := 0
	for key := uint64(0); key < keys; key++ {
		before := JumpHash(key, 16)
		after := JumpHash(key, 17)
		if before != after {
			moved++
			if after != 16 {
				t.Fatalf("key %d moved to old bucket %d", key, after)
			}
		}
	}
	frac := float64(moved) / keys
	if frac < 0.03 || frac > 0.09 {
		t.Fatalf("moved fraction %.3f, want ~1/17", frac)
	}
}

func TestQuickJumpPlacementValid(t *testing.T) {
	p := NewJumpPlacement(11, 4, 5)
	f := func(item uint64) bool {
		set := p.Replicas(item, nil)
		if len(set) != 4 {
			return false
		}
		seen := map[int]bool{}
		for _, s := range set {
			if s < 0 || s >= 11 || seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkJumpReplicas(b *testing.B) {
	p := NewJumpPlacement(16, 4, 1)
	var buf []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.Replicas(uint64(i), buf)
	}
}
