package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// TraceContext is the compact cross-process trace identity carried on
// the wire ahead of a traced command: which causal trace the command
// belongs to and which client-side span issued it. Both wire formats
// encode exactly these two words — a "trace <id> <span>" prefix line on
// the text protocol, a binOpTrace extras frame on the binary protocol —
// and both are only emitted after the handshake confirmed an RnB peer,
// so plain memcached servers never see them.
type TraceContext struct {
	// TraceID identifies the whole causal trace (one client request and
	// every server transaction it fanned into). Zero means "untraced".
	TraceID uint64 `json:"trace_id"`
	// Parent is the span id of the client-side span that issued the
	// traced command; server spans attach under it.
	Parent uint64 `json:"parent"`
}

// Valid reports whether tc names a real trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// ServerTimings is a server's phase attribution for one traced
// transaction, returned to the client on the same connection so the
// client can split its observed RTT into queue/wire/server components.
// WaitNS (store shard-lock wait) is a component *inside* ExecNS, not an
// additional phase, so the server-side total is Queue+Parse+Exec+Flush.
type ServerTimings struct {
	// TraceID echoes the propagated trace id (framing check).
	TraceID uint64 `json:"trace_id"`
	// SpanID is the server-side span id minted for this transaction.
	SpanID uint64 `json:"span_id"`
	// QueueNS is how long the command's bytes sat in the connection's
	// user-space read buffer before the server began this transaction —
	// a lower bound on same-connection backlog (an idle blocking read
	// measures ~0 because the read that delivers the bytes is the fill).
	QueueNS int64 `json:"queue_ns"`
	// ParseNS covers command read+decode up to the backend call.
	ParseNS int64 `json:"parse_ns"`
	// WaitNS is store shard-lock acquisition wait, a slice of ExecNS.
	WaitNS int64 `json:"wait_ns"`
	// ExecNS is the backend (store) execution time.
	ExecNS int64 `json:"exec_ns"`
	// FlushNS is response serialization plus the flush to the socket.
	FlushNS int64 `json:"flush_ns"`
}

// TotalNS is the server's whole share of the round trip (WaitNS is
// already inside ExecNS).
func (st *ServerTimings) TotalNS() int64 {
	return st.QueueNS + st.ParseNS + st.ExecNS + st.FlushNS
}

// ServerSpan is one transaction's record in the server-side flight
// recorder: what ran, when, over how many keys, and where its time
// went. Untraced transactions are not recorded — the recorder exists to
// explain traced (sampled) traffic, and recording every transaction
// would put a mutex on the server hot path.
type ServerSpan struct {
	// ID is the server-local span id (== Timings.SpanID).
	ID uint64 `json:"id"`
	// Op is the wire command ("get", "get_multi", "set", ...).
	Op string `json:"op"`
	// Start is when the server began the transaction.
	Start time.Time `json:"start"`
	// Keys is the number of keys in the transaction.
	Keys int `json:"keys"`
	// Timings is the phase attribution (includes trace/parent linkage).
	Timings ServerTimings `json:"timings"`
	// Parent is the client span id the transaction was issued under.
	Parent uint64 `json:"parent,omitempty"`
}

// ServerRecorder is the server-side analogue of Recorder: per-phase
// histograms fed by every traced transaction plus a ring of the most
// recent ServerSpans. All methods are safe for concurrent use.
type ServerRecorder struct {
	// Per-phase histograms (nanoseconds in, seconds out via the
	// registry's duration-histogram path).
	Queue Hist
	Parse Hist
	Wait  Hist
	Exec  Hist
	Flush Hist

	nextID atomic.Uint64
	traced atomic.Uint64

	mu   sync.Mutex
	ring ring[ServerSpan]
}

// NewServerRecorder builds a recorder with a size-span ring (size <= 0
// selects DefaultRingSize).
func NewServerRecorder(size int) *ServerRecorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &ServerRecorder{ring: newRing[ServerSpan](size)}
}

// NextID mints a server-local span id.
func (r *ServerRecorder) NextID() uint64 { return r.nextID.Add(1) }

// Traced returns how many traced transactions the recorder has seen.
func (r *ServerRecorder) Traced() uint64 { return r.traced.Load() }

// Record feeds the phase histograms and stores sp in the ring.
func (r *ServerRecorder) Record(sp ServerSpan) {
	r.traced.Add(1)
	r.Queue.ObserveNS(sp.Timings.QueueNS)
	r.Parse.ObserveNS(sp.Timings.ParseNS)
	r.Wait.ObserveNS(sp.Timings.WaitNS)
	r.Exec.ObserveNS(sp.Timings.ExecNS)
	r.Flush.ObserveNS(sp.Timings.FlushNS)
	r.mu.Lock()
	r.ring.push(sp)
	r.mu.Unlock()
}

// RegisterMetrics exports the recorder's per-phase histograms and
// traced-transaction counter under stable memd_* names — the Prometheus
// face of the server-side attribution the wire protocol reports per
// transaction.
func (r *ServerRecorder) RegisterMetrics(reg *Registry) {
	reg.RegisterDurationHist("memd_queue_wait_seconds",
		"Traced transactions: wait between the request bytes arriving and processing starting.", &r.Queue)
	reg.RegisterDurationHist("memd_parse_seconds",
		"Traced transactions: command parse time.", &r.Parse)
	reg.RegisterDurationHist("memd_store_wait_seconds",
		"Traced transactions: store shard-lock wait (a subset of exec).", &r.Wait)
	reg.RegisterDurationHist("memd_exec_seconds",
		"Traced transactions: store execution, lock wait included.", &r.Exec)
	reg.RegisterDurationHist("memd_flush_seconds",
		"Traced transactions: response serialization and socket flush.", &r.Flush)
	reg.Counter("memd_traced_transactions",
		"Transactions that carried a trace context.", r.traced.Load)
}

// Spans dumps the ring, newest first.
func (r *ServerRecorder) Spans() []ServerSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.newestFirst()
}
