package memcache

import (
	"sync/atomic"

	"rnb/internal/obs"
)

// PoolGauges tracks the transport (Client): connection lifecycle, queue
// occupancy, pipeline depth, and what became of the write-backs a
// one-connection client queued (AddLater): a replica a read recovered
// stays virtual exactly when its write-back was dropped, and the reason
// is one of three. One PoolGauges is typically shared by every
// per-server client of an RnB client, so the numbers are tier-wide. All
// fields are atomics, bumped in place; the zero value is ready.
type PoolGauges struct {
	ConnsOpen   atomic.Int64
	ConnsDialed atomic.Uint64
	ConnsFailed atomic.Uint64

	Queued   atomic.Int64
	InFlight atomic.Int64

	PipelineHighWater atomic.Int64

	Replays   atomic.Uint64
	Resubmits atomic.Uint64

	WriteBackQueued      atomic.Uint64
	WriteBackCarried     atomic.Uint64
	WriteBackDroppedAge  atomic.Uint64
	WriteBackDroppedFull atomic.Uint64
	WriteBackDroppedConn atomic.Uint64
}

// Register names every field, once, for every rendering of reg.
func (g *PoolGauges) Register(reg *obs.Registry) {
	reg.Gauge("rnb_pool_conns_open", "Pooled connections currently established.", g.ConnsOpen.Load)
	reg.Counter("rnb_pool_conns_dialed", "Pooled connection dials that succeeded.", g.ConnsDialed.Load)
	reg.Counter("rnb_pool_conns_failed", "Pooled connections torn down by an I/O error.", g.ConnsFailed.Load)
	reg.Gauge("rnb_pool_queued", "Callers routed to a pooled connection and waiting their turn to write to it.", g.Queued.Load)
	reg.Gauge("rnb_pool_in_flight", "Requests written to a pooled connection and awaiting their response.", g.InFlight.Load)
	reg.Gauge("rnb_pool_pipeline_high_water", "Deepest in-flight pipeline ever observed: how much pipelining the workload got.", g.PipelineHighWater.Load)
	reg.Counter("rnb_pool_replays", "Idempotent requests replayed after their pooled connection died.", g.Replays.Load)
	reg.Counter("rnb_pool_resubmits", "Never-written requests rerouted after their pooled connection died.", g.Resubmits.Load)
	reg.Counter("rnb_writeback_queued", "Round-2 write-backs accepted into a single connection's pending buffer.", g.WriteBackQueued.Load)
	reg.Counter("rnb_writeback_carried", "Write-backs flushed in front of a later command to their server.", g.WriteBackCarried.Load)
	reg.Counter("rnb_writeback_dropped_age", "Write-backs dropped because no command followed within the age bound.", g.WriteBackDroppedAge.Load)
	reg.Counter("rnb_writeback_dropped_full", "Write-backs dropped because the pending buffer was at its byte cap.", g.WriteBackDroppedFull.Load)
	reg.Counter("rnb_writeback_dropped_conn", "Write-backs dropped because the connection broke or closed first.", g.WriteBackDroppedConn.Load)
}

// RecordInFlight bumps InFlight and ratchets PipelineHighWater.
func (g *PoolGauges) RecordInFlight() {
	d := g.InFlight.Add(1)
	for {
		hw := g.PipelineHighWater.Load()
		if d <= hw || g.PipelineHighWater.CompareAndSwap(hw, d) {
			return
		}
	}
}
