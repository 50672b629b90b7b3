package hotspot

import "sync/atomic"

// Counters tracks the adaptive hot-key replication machinery: epoch
// rotations, promotions and demotions of keys to/from boosted
// replication, and the current heat table's size. All fields are
// atomics, bumped in place by the controller; the zero value is ready.
type Counters struct {
	Epochs     atomic.Uint64
	Promotions atomic.Uint64
	Demotions  atomic.Uint64

	HotKeys       atomic.Int64
	BoostReplicas atomic.Int64
}
