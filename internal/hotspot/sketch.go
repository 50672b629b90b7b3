// Package hotspot notices heat. The paper fixes the replication degree
// r globally (§III-B), but its own workloads are skewed social-feed
// requests: a small set of hot keys dominates load, so a uniform r
// either wastes RAM replicating cold keys or leaves the hot keys'
// servers as the bottleneck. This package tracks per-key request
// frequency with streaming summaries — a sharded Count-Min sketch for
// estimates over the whole key space plus a SpaceSaving top-k tracker
// for the candidates worth acting on — and drives an epoch-based
// controller that raises the replication degree of keys that stay hot
// and lowers it again (with hysteresis) when they cool.
//
// The placement-facing piece is AdaptivePlacement: a
// hashring.Placement wrapper whose replica sets are always a superset
// of the wrapped placement's, with the baseline replicas as a prefix.
// That invariant is what makes promotion and demotion safe online: the
// distinguished copy never moves, and any replica a plan could have
// used before a transition is still in the set after it, so reads
// never miss because of a heat-table change. It is a simulator
// placement (rnbsim hotspot, rnbsim placement); the live client keeps
// one fixed r per key.
package hotspot

import (
	"fmt"

	"rnb/internal/xhash"
)

// Sketch is a Count-Min sketch over uint64 keys: depth hash rows of
// width counters each. Add and Estimate never under-count — an
// estimate is an upper bound on the true (decayed) frequency, with the
// usual CM overestimation from collisions. Not safe for concurrent
// use; Tracker shards and locks it.
type Sketch struct {
	width uint32
	depth int
	seed  uint64
	rows  [][]uint32
}

// NewSketch builds a width x depth sketch. Width is the error knob
// (over-estimate ~ total/width per row), depth the confidence knob.
func NewSketch(width, depth int, seed uint64) *Sketch {
	if width < 1 || depth < 1 {
		panic("hotspot: sketch width and depth must be >= 1")
	}
	s := &Sketch{width: uint32(width), depth: depth, seed: seed}
	s.rows = make([][]uint32, depth)
	for i := range s.rows {
		s.rows[i] = make([]uint32, width)
	}
	return s
}

func (s *Sketch) cell(row int, key uint64) *uint32 {
	h := xhash.Seeded(s.seed+uint64(row)*0x9e3779b97f4a7c15, key)
	return &s.rows[row][uint32(h)%s.width]
}

// Add records c occurrences of key and returns the new estimate.
func (s *Sketch) Add(key uint64, c uint32) uint32 {
	est := ^uint32(0)
	for row := 0; row < s.depth; row++ {
		cell := s.cell(row, key)
		if v := *cell; v > ^uint32(0)-c {
			*cell = ^uint32(0) // saturate instead of wrapping
		} else {
			*cell = v + c
		}
		if *cell < est {
			est = *cell
		}
	}
	return est
}

// Estimate returns the (never under-counting) frequency estimate.
func (s *Sketch) Estimate(key uint64) uint32 {
	est := ^uint32(0)
	for row := 0; row < s.depth; row++ {
		if v := *s.cell(row, key); v < est {
			est = v
		}
	}
	return est
}

// Decay halves every counter (rounding down): the per-epoch
// exponential-decay step that makes estimates track recent heat
// instead of all-time counts.
func (s *Sketch) Decay() {
	for _, row := range s.rows {
		for i := range row {
			row[i] >>= 1
		}
	}
}

// Reset zeroes the sketch.
func (s *Sketch) Reset() {
	for _, row := range s.rows {
		for i := range row {
			row[i] = 0
		}
	}
}

// Merge adds o's counters into s. The sketches must share width,
// depth, and seed, or the cell mapping would be meaningless.
func (s *Sketch) Merge(o *Sketch) error {
	if s.width != o.width || s.depth != o.depth || s.seed != o.seed {
		return fmt.Errorf("hotspot: cannot merge %dx%d/seed=%d sketch into %dx%d/seed=%d",
			o.width, o.depth, o.seed, s.width, s.depth, s.seed)
	}
	for r := range s.rows {
		dst, src := s.rows[r], o.rows[r]
		for i := range dst {
			if v := dst[i]; v > ^uint32(0)-src[i] {
				dst[i] = ^uint32(0)
			} else {
				dst[i] = v + src[i]
			}
		}
	}
	return nil
}
