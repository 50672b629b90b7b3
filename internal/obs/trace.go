package obs

import (
	"math/rand"
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

// ServerRecorder is the server-side analogue of Tracer: per-phase
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
	ring []ServerSpan
	head int
	n    int
}

// NewServerRecorder builds a recorder with a size-span ring (size <= 0
// selects DefaultRingSize).
func NewServerRecorder(size int) *ServerRecorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &ServerRecorder{ring: make([]ServerSpan, size)}
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
	r.ring[r.head] = sp
	r.head = (r.head + 1) % len(r.ring)
	if r.n < len(r.ring) {
		r.n++
	}
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
	reg.RegisterFunc("memd_traced_transactions",
		"Transactions that carried a trace context.", Counter,
		func() float64 { return float64(r.Traced()) })
}

// Spans dumps the ring, newest first.
func (r *ServerRecorder) Spans() []ServerSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ServerSpan, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.ring[(r.head-i+len(r.ring))%len(r.ring)])
	}
	return out
}

// Trace-buffer defaults.
const (
	DefaultSlowCapacity      = 64
	DefaultReservoirCapacity = 32
)

// TraceConfig parameterizes client-side trace collection.
type TraceConfig struct {
	// SampleEvery is the head-sampling rate: every Nth multiget carries
	// a TraceContext on the wire (default 1 — trace everything; the
	// tail sampler below decides what is *kept*).
	SampleEvery int
	// SlowThreshold is the tail-sampling keep-always bound: finished
	// traces at least this slow always land in the slow ring (0 keeps
	// none by the slow rule; the reservoir still samples).
	SlowThreshold time.Duration
	// SlowCapacity is the slow ring's size (default 64).
	SlowCapacity int
	// ReservoirCapacity is the uniform reservoir over normal (fast)
	// traces (default 32; < 0 disables the reservoir).
	ReservoirCapacity int
	// Seed seeds the reservoir sampler (0 uses a fixed default so runs
	// are reproducible unless told otherwise).
	Seed int64
	// OnFinish, when set, observes every finished traced span before
	// the sampling decision (the bench's aggregation hook).
	OnFinish func(sp *Span)
}

// TraceBuffer implements tail sampling over finished traces: every
// trace slower than SlowThreshold is kept in a ring, and a uniform
// reservoir keeps a representative sample of the normal ones. All
// methods are safe for concurrent use.
type TraceBuffer struct {
	slowNS      int64
	sampleEvery uint64
	seq         atomic.Uint64
	started     atomic.Uint64
	finished    atomic.Uint64
	keptSlow    atomic.Uint64
	keptRes     atomic.Uint64
	onFinish    func(sp *Span)

	mu       sync.Mutex
	rng      *rand.Rand
	slow     []Span
	slowHead int
	slowN    int
	res      []Span
	resSeen  uint64
}

// NewTraceBuffer builds a buffer from cfg.
func NewTraceBuffer(cfg TraceConfig) *TraceBuffer {
	every := cfg.SampleEvery
	if every <= 0 {
		every = 1
	}
	slowCap := cfg.SlowCapacity
	if slowCap <= 0 {
		slowCap = DefaultSlowCapacity
	}
	resCap := cfg.ReservoirCapacity
	if resCap == 0 {
		resCap = DefaultReservoirCapacity
	}
	if resCap < 0 {
		resCap = 0
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &TraceBuffer{
		slowNS:      int64(cfg.SlowThreshold),
		sampleEvery: uint64(every),
		onFinish:    cfg.OnFinish,
		rng:         rand.New(rand.NewSource(seed)),
		slow:        make([]Span, slowCap),
		res:         make([]Span, 0, resCap),
	}
}

// ShouldTrace makes the head-sampling decision for the next request:
// whether it carries a TraceContext on the wire at all.
func (b *TraceBuffer) ShouldTrace() bool {
	if (b.seq.Add(1)-1)%b.sampleEvery != 0 {
		return false
	}
	b.started.Add(1)
	return true
}

// Finish hands a completed traced span to the tail sampler. The span is
// copied (RTT backing array included); the caller may reuse it.
func (b *TraceBuffer) Finish(sp *Span) {
	b.finished.Add(1)
	if b.onFinish != nil {
		b.onFinish(sp)
	}
	cp := *sp
	cp.RTTs = append([]TxnRTT(nil), sp.RTTs...)
	if b.slowNS > 0 && cp.TotalNS >= b.slowNS {
		b.keptSlow.Add(1)
		b.mu.Lock()
		b.slow[b.slowHead] = cp
		b.slowHead = (b.slowHead + 1) % len(b.slow)
		if b.slowN < len(b.slow) {
			b.slowN++
		}
		b.mu.Unlock()
		return
	}
	b.mu.Lock()
	if cap(b.res) == 0 {
		b.mu.Unlock()
		return
	}
	b.resSeen++
	if len(b.res) < cap(b.res) {
		b.res = append(b.res, cp)
		b.keptRes.Add(1)
	} else if j := b.rng.Int63n(int64(b.resSeen)); int(j) < cap(b.res) {
		b.res[j] = cp
		b.keptRes.Add(1)
	}
	b.mu.Unlock()
}

// Traces dumps the kept traces: slow ring newest first, then the
// reservoir of normal traces.
func (b *TraceBuffer) Traces() []Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Span, 0, b.slowN+len(b.res))
	for i := 1; i <= b.slowN; i++ {
		out = append(out, b.slow[(b.slowHead-i+len(b.slow))%len(b.slow)])
	}
	out = append(out, b.res...)
	return out
}

// Trace looks a kept trace up by trace id.
func (b *TraceBuffer) Trace(id uint64) (Span, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i := 1; i <= b.slowN; i++ {
		if sp := b.slow[(b.slowHead-i+len(b.slow))%len(b.slow)]; sp.TraceID == id {
			return sp, true
		}
	}
	for _, sp := range b.res {
		if sp.TraceID == id {
			return sp, true
		}
	}
	return Span{}, false
}

// Started counts head-sampled traces begun; Finished counts completed
// traced spans handed to the tail sampler; KeptSlow/KeptReservoir count
// keep decisions by rule.
func (b *TraceBuffer) Started() uint64       { return b.started.Load() }
func (b *TraceBuffer) Finished() uint64      { return b.finished.Load() }
func (b *TraceBuffer) KeptSlow() uint64      { return b.keptSlow.Load() }
func (b *TraceBuffer) KeptReservoir() uint64 { return b.keptRes.Load() }
