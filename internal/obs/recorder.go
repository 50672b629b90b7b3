package obs

import (
	"log"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder defaults. The slow ring's capacity and the reservoir's seed
// are constants, not knobs; the fixed seed keeps the reservoir's
// choices reproducible from run to run.
const (
	DefaultRingSize          = 256
	DefaultReservoirCapacity = 32
	slowCapacity             = 64
	reservoirSeed            = 1
)

// Config parameterizes a Recorder. The zero value is ready: a 256-entry
// flight recorder, histograms always on, no slow rule.
type Config struct {
	// RingSize is the flight recorder's capacity in spans (default 256;
	// < 0 disables the recorder entirely).
	RingSize int
	// SlowThreshold is the one definition of "slow": every finished
	// span, traced or not, whose total is at least this long is counted,
	// handed to SlowLog and kept in the slow ring (0 disables).
	SlowThreshold time.Duration
	// SlowLog receives every slow span (default: the standard log
	// package, one compact line per span). As for
	// TraceConfig.OnFinish, the span is valid only during the call.
	SlowLog func(sp *Span)
}

// TraceConfig parameterizes distributed tracing on top of a Recorder.
type TraceConfig struct {
	// SampleEvery is the head-sampling rate: every Nth multiget carries
	// a TraceContext on the wire (default 1 — trace everything; the
	// retention rules decide what is *kept*).
	SampleEvery int
	// ReservoirCapacity is the uniform reservoir over traced spans that
	// are not slow (default 32; < 0 disables the reservoir).
	ReservoirCapacity int
	// OnFinish, when set, observes every finished traced span before
	// any retention decision (the bench's aggregation hook). The span
	// and its RTTs are valid only during the call — the caller reuses
	// them for a later request — so a hook that keeps either copies it.
	OnFinish func(sp *Span)
}

// Recorder is the per-client request recorder: latency histograms for
// each request phase, the span-id mint, the head sampler, and the one
// store of finished spans. A span with TraceID == 0 is simply a request
// that carried no trace context; it goes through the same Finish. Three
// retention rules share the store and its mutex:
//
//   - recent: the last RingSize spans, traced or not (the flight
//     recorder);
//   - slow: every span at or over SlowThreshold, traced or not, in a
//     64-entry ring;
//   - reservoir: a seeded uniform sample of the traced spans that are
//     not slow.
//
// All methods are safe for concurrent use.
type Recorder struct {
	// Request-level histograms. Total spans the whole request; Plan and
	// Fanout isolate the planning and fan-out phases. RTT is fed by both
	// transports, once per server round trip (including single Gets
	// and writes, which carry no span).
	Total  Hist
	Plan   Hist
	Fanout Hist
	RTT    Hist

	slowNS      int64
	slowLog     func(sp *Span)
	sampleEvery uint64 // 0: tracing off, the head sampler admits nothing
	onFinish    func(sp *Span)
	// Capacities of the recent ring and the reservoir, fixed at
	// construction so Finish can tell without mu whether any rule
	// wants a copy.
	recentCap, resCap int

	nextID   atomic.Uint64
	seq      atomic.Uint64
	started  atomic.Uint64
	finished atomic.Uint64
	slowSeen atomic.Uint64
	keptSlow atomic.Uint64
	keptRes  atomic.Uint64

	mu      sync.Mutex
	recent  ring[Span]
	slow    ring[Span]
	rng     *rand.Rand
	res     []Span
	resSeen uint64
}

// NewRecorder builds a Recorder from cfg. trace is nil when distributed
// tracing is off: the head sampler then admits nothing and there is no
// reservoir, but a span finished under an externally supplied trace
// context is still recorded like any other.
func NewRecorder(cfg Config, trace *TraceConfig) *Recorder {
	size := capacity(cfg.RingSize, DefaultRingSize)
	r := &Recorder{
		slowNS:    int64(cfg.SlowThreshold),
		slowLog:   cfg.SlowLog,
		recentCap: size,
		recent:    newRing[Span](size),
		slow:      newRing[Span](slowCapacity),
		rng:       rand.New(rand.NewSource(reservoirSeed)),
	}
	if r.slowLog == nil {
		r.slowLog = logSlowSpan
	}
	if trace != nil {
		r.sampleEvery = 1
		if trace.SampleEvery > 0 {
			r.sampleEvery = uint64(trace.SampleEvery)
		}
		r.resCap = capacity(trace.ReservoirCapacity, DefaultReservoirCapacity)
		r.res = make([]Span, 0, r.resCap)
		r.onFinish = trace.OnFinish
	}
	return r
}

// capacity resolves a configured size: 0 selects def, negative means
// none.
func capacity(n, def int) int {
	if n == 0 {
		return def
	}
	return max(n, 0)
}

func logSlowSpan(sp *Span) {
	log.Printf("obs: slow request op=%s keys=%d total=%v plan=%v fanout=%v round2=%v loader=%v txns=%d retries=%d failed=%d",
		sp.Op, sp.Keys, time.Duration(sp.TotalNS), time.Duration(sp.PlanNS),
		time.Duration(sp.FanoutNS), time.Duration(sp.Round2NS),
		time.Duration(sp.LoaderNS), sp.Transactions, sp.Retries, sp.Failed)
}

// NextID stamps a fresh span id.
func (r *Recorder) NextID() uint64 { return r.nextID.Add(1) }

// ShouldTrace makes the head-sampling decision for the next request:
// whether it carries a TraceContext on the wire at all.
func (r *Recorder) ShouldTrace() bool {
	if r.sampleEvery == 0 || (r.seq.Add(1)-1)%r.sampleEvery != 0 {
		return false
	}
	r.started.Add(1)
	return true
}

// Finish records a completed span: phase histograms, OnFinish (traced
// spans only, before any copy), the slow rule, then a copy of the span
// under each retention rule that wants it, RTT stamps included, so the
// caller may reuse its own array. The recent ring copies the stamps into
// the array its slot already owns (the evicted span's), so a steady
// stream of spans costs it nothing; the slow ring and the reservoir keep
// a copy of their own, made only when it is kept, which nothing writes
// again. Readers get copies (Requests, Trace), never a slot's array.
func (r *Recorder) Finish(sp *Span) {
	r.Total.ObserveNS(sp.TotalNS)
	r.Plan.ObserveNS(sp.PlanNS)
	r.Fanout.ObserveNS(sp.FanoutNS)
	traced := sp.TraceID != 0
	if traced {
		r.finished.Add(1)
		if r.onFinish != nil {
			r.onFinish(sp)
		}
	}
	slow := r.slowNS > 0 && sp.TotalNS >= r.slowNS
	if slow {
		r.slowSeen.Add(1)
		if traced {
			r.keptSlow.Add(1)
		}
		r.slowLog(sp)
	}
	sample := traced && !slow && r.resCap > 0
	if r.recentCap == 0 && !slow && !sample {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if slot := r.recent.next(); slot != nil {
		rtts := append(slot.RTTs[:0], sp.RTTs...)
		*slot = *sp
		slot.RTTs = rtts
	}
	switch {
	case slow:
		r.slow.push(owned(sp))
	case sample:
		r.resSeen++
		if len(r.res) < r.resCap {
			r.res = append(r.res, owned(sp))
			r.keptRes.Add(1)
		} else if j := r.rng.Int63n(int64(r.resSeen)); j < int64(r.resCap) {
			r.res[j] = owned(sp)
			r.keptRes.Add(1)
		}
	}
}

// owned copies sp with an RTT array of its own.
func owned(sp *Span) Span {
	cp := *sp
	cp.RTTs = slices.Clone(sp.RTTs)
	return cp
}

// Requests dumps the flight recorder, newest span first, RTT stamps
// copied out: the ring reuses a slot's array once it wraps.
func (r *Recorder) Requests() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.recent.newestFirst()
	for i := range out {
		out[i].RTTs = slices.Clone(out[i].RTTs)
	}
	return out
}

// Traces dumps what the slow rule and the reservoir kept: the slow
// ring newest first, then the reservoir. Their RTT arrays are their
// own and never written again, so they are handed out as they are.
func (r *Recorder) Traces() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(r.slow.newestFirst(), r.res...)
}

// Trace looks a trace id up in everything the recorder still holds,
// whichever rule is holding it — the slow ring newest first, the
// reservoir, then the recent ring newest first — searching in place and
// copying out only the match, RTT stamps included.
func (r *Recorder) Trace(id uint64) (Span, bool) {
	if id == 0 {
		return Span{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	match := func(sp *Span) bool { return sp.TraceID == id }
	held := r.slow.find(match)
	for i := 0; held == nil && i < len(r.res); i++ {
		if match(&r.res[i]) {
			held = &r.res[i]
		}
	}
	if held == nil {
		held = r.recent.find(match)
	}
	if held == nil {
		return Span{}, false
	}
	return owned(held), true
}

// SlowSeen counts finished spans at or over the slow threshold.
// Started counts head-sampled traces begun; Finished counts completed
// traced spans; KeptSlow/KeptReservoir count the traced spans kept by
// each rule.
func (r *Recorder) SlowSeen() uint64      { return r.slowSeen.Load() }
func (r *Recorder) Started() uint64       { return r.started.Load() }
func (r *Recorder) Finished() uint64      { return r.finished.Load() }
func (r *Recorder) KeptSlow() uint64      { return r.keptSlow.Load() }
func (r *Recorder) KeptReservoir() uint64 { return r.keptRes.Load() }
