package hotspot

import (
	"sort"
	"sync"

	"rnb/internal/xhash"
)

// Tracker ingests the key stream from the request path and answers
// "how hot is this key right now". It is sharded by key hash: each
// shard owns a Count-Min sketch (whole-space estimates) and a
// SpaceSaving top-k (the candidates worth promoting), guarded by a
// per-shard mutex so concurrent readers on different shards never
// contend. A Touch is two O(1)-ish updates under one short critical
// section.
//
// Heat is measured in decayed counts: HarvestAndDecay halves every
// counter, so a key's estimate is an exponentially-weighted sum of its
// per-epoch frequencies (weight 1/2 per epoch of age), and the
// tracker's Total decays the same way — estimates and totals stay
// comparable across epochs.
type Tracker struct {
	shards []trackerShard
	mask   uint64
}

type trackerShard struct {
	mu     sync.Mutex
	sketch *Sketch
	topk   *TopK
	total  uint64 // decayed touch count, same decay schedule as the sketch
	_      [24]byte
}

// NewTracker builds a tracker with `shards` shards (rounded up to a
// power of two), each holding a width x depth sketch and a top-k
// tracker with topk slots.
func NewTracker(shards, width, depth, topk int, seed uint64) *Tracker {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	t := &Tracker{shards: make([]trackerShard, n), mask: uint64(n - 1)}
	for i := range t.shards {
		t.shards[i].sketch = NewSketch(width, depth, seed+uint64(i)*0x517cc1b727220a95)
		t.shards[i].topk = NewTopK(topk)
	}
	return t
}

func (t *Tracker) shardOf(key uint64) *trackerShard {
	return &t.shards[xhash.Uint64(key)&t.mask]
}

// Touch records one occurrence of key.
func (t *Tracker) Touch(key uint64) {
	sh := t.shardOf(key)
	sh.mu.Lock()
	sh.sketch.Add(key, 1)
	sh.topk.Offer(key, 1)
	sh.total++
	sh.mu.Unlock()
}

// Estimate returns the decayed frequency estimate for key (an upper
// bound, from the key's shard sketch).
func (t *Tracker) Estimate(key uint64) uint64 {
	sh := t.shardOf(key)
	sh.mu.Lock()
	est := uint64(sh.sketch.Estimate(key))
	sh.mu.Unlock()
	return est
}

// Total returns the decayed total touch count across shards.
func (t *Tracker) Total() uint64 {
	var n uint64
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += sh.total
		sh.mu.Unlock()
	}
	return n
}

// Harvest is one epoch's worth of controller input: the hottest keys,
// and the decayed total they are measured against.
type Harvest struct {
	// Entries are the top keys across all shards, descending by Count.
	Entries []Entry
	// Total is the decayed total number of touches (pre-decay).
	Total uint64
}

// HarvestAndDecay snapshots the top `per` keys of every shard plus the
// decayed totals, then applies the epoch decay (halving sketch, top-k
// and total). Keys are unique across shards by construction.
func (t *Tracker) HarvestAndDecay(per int) Harvest {
	var h Harvest
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		h.Entries = append(h.Entries, sh.topk.Top(per)...)
		h.Total += sh.total
		sh.total >>= 1
		sh.sketch.Decay()
		sh.topk.Decay()
		sh.mu.Unlock()
	}
	sort.Slice(h.Entries, func(i, j int) bool {
		if h.Entries[i].Count != h.Entries[j].Count {
			return h.Entries[i].Count > h.Entries[j].Count
		}
		return h.Entries[i].Key < h.Entries[j].Key
	})
	return h
}
