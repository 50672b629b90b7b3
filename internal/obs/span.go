package obs

import "time"

// TxnRTT is one server round trip inside a request: which server, how
// many keys rode the transaction, which phase issued it, and how long
// the client waited for it. In the pooled transport the duration
// includes queueing for a connection — it is the latency the request
// actually experienced, not the wire time alone.
type TxnRTT struct {
	// Server is the client's server index.
	Server int `json:"server"`
	// Addr is the server address.
	Addr string `json:"addr"`
	// Keys is the number of keys requested (primaries + hitchhikers).
	Keys int `json:"keys"`
	// Phase labels which stage issued the trip: "fanout" (the planned
	// round-1 multi-gets), "replan" (mid-request re-plan rounds), or
	// "round2" (distinguished-copy recovery).
	Phase string `json:"phase"`
	// Round is the 1-based re-plan round for phase "replan", 0
	// otherwise.
	Round int `json:"round,omitempty"`
	// DurNS is the round trip's wall time in nanoseconds.
	DurNS int64 `json:"dur_ns"`
	// Err is the failure, if the transaction hit one.
	Err string `json:"err,omitempty"`

	// Distributed-tracing fields, present only on traced requests.

	// SpanID is the client-side span id minted for this round trip;
	// server spans it caused name it as their parent.
	SpanID uint64 `json:"span_id,omitempty"`
	// OffsetNS is the trip's start offset from the owning Span.Start.
	OffsetNS int64 `json:"offset_ns,omitempty"`
	// QueueNS is the client-side share of DurNS spent waiting to reach
	// the wire (pool submit-to-write wait, or single-conn mutex wait).
	QueueNS int64 `json:"queue_ns,omitempty"`
	// ServerTimings is the server's phase attribution for the trip,
	// returned in-band; nil when the server did not negotiate tracing.
	// DurNS − QueueNS − ServerTimings.TotalNS() is the wire residual.
	ServerTimings *ServerTimings `json:"server_timings,omitempty"`
}

// WireNS returns the round trip's wire residual: the part of DurNS not
// attributed to client queueing or the server's phases, clamped at
// zero (clock noise can push the subtraction slightly negative).
func (r *TxnRTT) WireNS() int64 {
	if r.ServerTimings == nil {
		return 0
	}
	wire := r.DurNS - r.QueueNS - r.ServerTimings.TotalNS()
	if wire < 0 {
		wire = 0
	}
	return wire
}

// Span is one request's lifecycle record: where the time went (plan,
// fan-out, recovery, loader), what the planner decided, and what went
// wrong. Spans land in the flight recorder for post-mortem dumps and,
// at or above the slow threshold, in the slow log and the slow ring.
// All durations are nanoseconds internally; exported metric names
// derived from spans use seconds (see registry.go).
type Span struct {
	// ID is a monotonically increasing per-recorder sequence number.
	ID uint64 `json:"id"`
	// Op names the API call ("get_multi", "get_multi_limit",
	// "get_multi_budget").
	Op string `json:"op"`
	// Start is when the request began.
	Start time.Time `json:"start"`
	// Keys is the number of keys requested.
	Keys int `json:"keys"`

	// Phase durations, nanoseconds.
	PlanNS   int64 `json:"plan_ns"`   // greedy set-cover planning
	FanoutNS int64 `json:"fanout_ns"` // round-1 fan-out plus re-plan rounds
	Round2NS int64 `json:"round2_ns"` // distinguished-copy recovery
	LoaderNS int64 `json:"loader_ns"` // cache-aside backing-store fetch
	TotalNS  int64 `json:"total_ns"`

	// Plan/outcome counters (mirroring rnb.Stats).
	Transactions int `json:"transactions"`
	Round2       int `json:"round2"`
	Hitchhikers  int `json:"hitchhikers"`
	Retries      int `json:"retries"`
	Replans      int `json:"replans"`
	Failed       int `json:"failed"`
	Loaded       int `json:"loaded"`
	ItemsFound   int `json:"items_found"`
	// WriteBacks is how many recovered items round 2 handed back to
	// their planned replica: queued to ride a later command on a single
	// connection (and perhaps dropped since — see the rnb_writeback_*
	// counters), stored and acknowledged on a pooled one.
	WriteBacks int `json:"write_backs"`
	// BreakerTrips is how many breaker open transitions the whole tier
	// saw while this request ran (concurrent requests share the
	// breakers, so trips caused by neighbors are counted too).
	BreakerTrips int `json:"breaker_trips"`

	// RTTs holds every server round trip the request issued.
	RTTs []TxnRTT `json:"rtts,omitempty"`
	// Err is the request-level failure, if any.
	Err string `json:"err,omitempty"`

	// TraceID is the distributed trace id propagated on the wire; zero
	// when the request was not head-sampled for tracing.
	TraceID uint64 `json:"trace_id,omitempty"`
	// ParentSpan is the upstream client span this request serves (a
	// proxy's server-side parent); zero at the originating client.
	ParentSpan uint64 `json:"parent_span,omitempty"`
}
