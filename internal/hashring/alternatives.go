package hashring

import "rnb/internal/xhash"

// This file provides one further Placement implementation from the
// consistent-hashing ecosystem, used as an ablation baseline against
// ranged consistent hashing: JumpPlacement (Lamport & Veach's jump
// consistent hash) — O(log n) lookup, minimal movement under growth,
// but only supports append/remove-at-end topology changes and needs
// re-salting to derive distinct replicas.

// JumpPlacement places replicas with jump consistent hashing, deriving
// replica i from an i-salted key and resolving collisions by further
// salting.
type JumpPlacement struct {
	servers  int
	replicas int
	seed     uint64
}

// NewJumpPlacement builds a jump-hash placement.
func NewJumpPlacement(servers, replicas int, seed uint64) *JumpPlacement {
	if replicas < 1 {
		panic("hashring: replication level must be >= 1")
	}
	if servers < 1 {
		panic("hashring: need at least one server")
	}
	return &JumpPlacement{servers: servers, replicas: replicas, seed: seed}
}

// JumpHash is Lamport & Veach's jump consistent hash: maps key to a
// bucket in [0, buckets) with minimal movement as buckets grows.
func JumpHash(key uint64, buckets int) int {
	var b int64 = -1
	var j int64
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(1<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// Replicas implements Placement.
func (p *JumpPlacement) Replicas(item uint64, buf []int) []int {
	r := p.replicas
	if r > p.servers {
		r = p.servers
	}
	out := buf[:0]
	for salt := uint64(0); len(out) < r; salt++ {
		s := JumpHash(xhash.Seeded(p.seed+salt, item), p.servers)
		dup := false
		for _, prev := range out {
			if prev == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// NumServers implements Placement.
func (p *JumpPlacement) NumServers() int { return p.servers }

// NumReplicas implements Placement.
func (p *JumpPlacement) NumReplicas() int { return p.replicas }

var _ Placement = (*JumpPlacement)(nil)
