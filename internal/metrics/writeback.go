package metrics

import (
	"sync/atomic"
)

// WriteBacks counts what became of the deferred adds round 2 queues on
// the single-connection transport (memcache.Client.AddLater): a replica
// a read recovered stays virtual exactly when its write-back was
// dropped, and the reason is one of three. One WriteBacks is shared by
// every per-server connection of a client, so the numbers are
// tier-wide. A pooled transport acknowledges each write-back inside the
// read and counts nothing here. All fields are atomics; the zero value
// is ready.
type WriteBacks struct {
	Queued  atomic.Uint64 // accepted into a connection's pending buffer
	Carried atomic.Uint64 // flushed in front of a later command to that server

	DroppedAge  atomic.Uint64 // no command followed within the age bound
	DroppedFull atomic.Uint64 // the pending buffer was at its byte cap
	DroppedConn atomic.Uint64 // the connection broke or closed first
}

// Snapshot returns the counters as a name -> value map (stable names).
func (w *WriteBacks) Snapshot() map[string]uint64 {
	return map[string]uint64{
		"queued":       w.Queued.Load(),
		"carried":      w.Carried.Load(),
		"dropped_age":  w.DroppedAge.Load(),
		"dropped_full": w.DroppedFull.Load(),
		"dropped_conn": w.DroppedConn.Load(),
	}
}
