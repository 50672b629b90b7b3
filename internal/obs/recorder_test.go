package obs

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testSpan builds a finished span; trace 0 is an untraced request.
func testSpan(id, trace uint64, total time.Duration) *Span {
	return &Span{ID: id, TraceID: trace, Op: "get_multi", TotalNS: int64(total),
		RTTs: []TxnRTT{{Server: 0, Keys: 3, Phase: "fanout", DurNS: int64(total)}}}
}

func spanIDs(spans []Span) []uint64 {
	ids := make([]uint64, len(spans))
	for i, sp := range spans {
		ids[i] = sp.ID
	}
	return ids
}

// TestRecorderRetention: one row per behaviour of the recorder's head
// sampler, slow rule and three retention rules.
func TestRecorderRetention(t *testing.T) {
	var hooked, logged []uint64
	for _, tc := range []struct {
		name  string
		cfg   Config
		trace *TraceConfig
		check func(t *testing.T, r *Recorder)
	}{
		{
			name: "the recent ring dumps the last RingSize spans newest first",
			cfg:  Config{RingSize: 4},
			check: func(t *testing.T, r *Recorder) {
				for i := uint64(1); i <= 10; i++ {
					r.Finish(testSpan(i, 0, time.Millisecond))
				}
				if got := spanIDs(r.Requests()); !slices.Equal(got, []uint64{10, 9, 8, 7}) {
					t.Fatalf("Requests ids = %v, want [10 9 8 7]", got)
				}
				if r.Total.Count() != 10 {
					t.Fatalf("Total histogram count = %d, want 10", r.Total.Count())
				}
			},
		},
		{
			name: "RingSize < 0 disables the recent ring, not the histograms",
			cfg:  Config{RingSize: -1},
			check: func(t *testing.T, r *Recorder) {
				r.Finish(testSpan(1, 0, time.Millisecond))
				if got := r.Requests(); len(got) != 0 {
					t.Fatalf("disabled ring returned %d spans", len(got))
				}
				if r.Total.Count() != 1 {
					t.Fatal("histogram skipped with the ring disabled")
				}
			},
		},
		{
			name:  "a stored span owns its RTT array under every rule",
			cfg:   Config{RingSize: 2, SlowThreshold: time.Second, SlowLog: func(*Span) {}},
			trace: &TraceConfig{},
			check: func(t *testing.T, r *Recorder) {
				fast, slow := testSpan(1, 11, time.Millisecond), testSpan(2, 12, time.Second)
				for _, sp := range []*Span{fast, slow} {
					r.Finish(sp)
					sp.RTTs[0].Keys = 999
					sp.RTTs = append(sp.RTTs, TxnRTT{Server: 1})
				}
				held := append(r.Requests(), r.Traces()...)
				if len(held) != 4 {
					t.Fatalf("recent + slow + reservoir hold %d spans, want 4", len(held))
				}
				for _, sp := range held {
					if len(sp.RTTs) != 1 || sp.RTTs[0].Keys != 3 {
						t.Fatalf("span %d shares the caller's RTT array: %+v", sp.ID, sp.RTTs)
					}
				}
			},
		},
		{
			name:  "head sampling takes every Nth request",
			trace: &TraceConfig{SampleEvery: 3},
			check: func(t *testing.T, r *Recorder) {
				var yes int
				for i := 0; i < 9; i++ {
					if r.ShouldTrace() {
						yes++
					}
				}
				if yes != 3 || r.Started() != 3 {
					t.Fatalf("SampleEvery=3 over 9 requests: traced %d (started %d), want 3", yes, r.Started())
				}
			},
		},
		{
			name: "an external trace context needs no sampler",
			check: func(t *testing.T, r *Recorder) {
				if r.ShouldTrace() {
					t.Fatal("head sampler admitted a request with tracing off")
				}
				r.Finish(testSpan(1, 0xfeed, time.Millisecond))
				if sp, ok := r.Trace(0xfeed); !ok || sp.ID != 1 {
					t.Fatalf("Trace(0xfeed): ok=%v span=%d, want span 1", ok, sp.ID)
				}
				if r.Started() != 0 || r.Finished() != 1 {
					t.Fatalf("started=%d finished=%d, want 0 and 1", r.Started(), r.Finished())
				}
			},
		},
		{
			name: "OnFinish sees every traced span once, before retention",
			cfg:  Config{RingSize: -1},
			trace: &TraceConfig{
				ReservoirCapacity: -1, // nothing is kept anywhere
				OnFinish:          func(sp *Span) { hooked = append(hooked, sp.TraceID) },
			},
			check: func(t *testing.T, r *Recorder) {
				r.Finish(testSpan(1, 1, 10))
				r.Finish(testSpan(2, 0, 10)) // untraced: not the hook's business
				r.Finish(testSpan(3, 3, 20))
				if !slices.Equal(hooked, []uint64{1, 3}) {
					t.Fatalf("OnFinish saw %v, want [1 3]", hooked)
				}
				if got := len(r.Traces()) + len(r.Requests()); got != 0 {
					t.Fatalf("recorder kept %d spans with every rule disabled", got)
				}
				if _, ok := r.Trace(1); ok {
					t.Fatal("Trace(1) found a span no rule kept")
				}
			},
		},
		{
			name: "a slow span is counted, logged and kept, traced or not",
			cfg: Config{RingSize: -1, SlowThreshold: time.Millisecond,
				SlowLog: func(sp *Span) { logged = append(logged, sp.ID) }},
			trace: &TraceConfig{ReservoirCapacity: -1},
			check: func(t *testing.T, r *Recorder) {
				r.Finish(testSpan(1, 0, time.Millisecond-1)) // fast
				r.Finish(testSpan(2, 0, time.Millisecond))   // at the threshold: slow
				for i := uint64(3); i <= 70; i++ {           // 68 traced slow spans
					r.Finish(testSpan(i, i, time.Millisecond+time.Duration(i)))
				}
				if r.SlowSeen() != 69 || r.KeptSlow() != 68 || len(logged) != 69 {
					t.Fatalf("SlowSeen=%d KeptSlow=%d logged=%d, want 69, 68, 69",
						r.SlowSeen(), r.KeptSlow(), len(logged))
				}
				if logged[0] != 2 || logged[68] != 70 {
					t.Fatalf("slow log saw ids %d..%d, want 2..70", logged[0], logged[68])
				}
				// The 64-entry slow ring dumps newest first; span 2 (untraced)
				// and spans 3..6 were overwritten.
				kept := spanIDs(r.Traces())
				if len(kept) != 64 || kept[0] != 70 || kept[63] != 7 {
					t.Fatalf("slow ring: %d spans, ids %d..%d; want 64 spans 70..7", len(kept), kept[0], kept[len(kept)-1])
				}
				if _, ok := r.Trace(6); ok {
					t.Fatal("evicted slow trace 6 still found")
				}
				if sp, ok := r.Trace(7); !ok || sp.ID != 7 {
					t.Fatalf("Trace(7): ok=%v span=%d", ok, sp.ID)
				}
			},
		},
		{
			name:  "the reservoir is uniform and repeats for the fixed seed",
			cfg:   Config{RingSize: -1, SlowThreshold: time.Second, SlowLog: func(*Span) {}},
			trace: &TraceConfig{ReservoirCapacity: 100},
			check: func(t *testing.T, r *Recorder) {
				twin := NewRecorder(Config{RingSize: -1}, &TraceConfig{ReservoirCapacity: 100})
				for i := uint64(1); i <= 1000; i++ {
					r.Finish(testSpan(i, i, time.Microsecond))
					twin.Finish(testSpan(i, i, time.Microsecond))
				}
				r.Finish(testSpan(1001, 0, time.Microsecond)) // untraced: never sampled
				r.Finish(testSpan(1002, 1002, time.Second))   // slow: kept by the other rule
				kept := spanIDs(r.Traces())[1:]               // [0] is the slow span
				if len(kept) != 100 || !slices.Equal(kept, spanIDs(twin.Traces())) {
					t.Fatalf("two reservoirs fed the same spans differ: %d kept", len(kept))
				}
				// Uniform over arrival order: each fifth of the stream
				// expects 20 of the 100 slots (sd 4).
				var fifths [5]int
				for _, id := range kept {
					fifths[(id-1)/200]++
				}
				for i, n := range fifths {
					if n < 8 || n > 32 {
						t.Fatalf("reservoir is not uniform: fifth %d holds %d of 100 (all: %v)", i, n, fifths)
					}
				}
				if sp, ok := r.Trace(kept[0]); !ok || sp.ID != kept[0] {
					t.Fatalf("Trace(%d) misses a span the reservoir holds", kept[0])
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, NewRecorder(tc.cfg, tc.trace)) })
	}
}

// TestRecorderConcurrent hammers Finish — traced and untraced, slow
// and fast — against the head sampler, the RTT histogram and every
// reader; run under -race this is the recorder's data-race gate.
func TestRecorderConcurrent(t *testing.T) {
	var logged, hooked atomic.Uint64
	r := NewRecorder(
		Config{RingSize: 8, SlowThreshold: time.Millisecond, SlowLog: func(*Span) { logged.Add(1) }},
		&TraceConfig{SampleEvery: 2, ReservoirCapacity: 4, OnFinish: func(*Span) { hooked.Add(1) }})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := r.NextID()
				var trace uint64
				if r.ShouldTrace() {
					trace = id
				}
				total := time.Microsecond
				if i%4 == 0 {
					total = time.Millisecond
				}
				r.Finish(testSpan(id, trace, total))
				r.RTT.Observe(time.Microsecond)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Requests()
				r.Traces()
				r.Trace(uint64(i))
			}
		}()
	}
	wg.Wait()
	if r.Total.Count() != 2000 || r.RTT.Count() != 2000 {
		t.Fatalf("counts: total=%d rtt=%d, want 2000 each", r.Total.Count(), r.RTT.Count())
	}
	if r.Started() != 1000 || r.Finished() != 1000 || hooked.Load() != 1000 {
		t.Fatalf("started=%d finished=%d hooked=%d, want 1000 each", r.Started(), r.Finished(), hooked.Load())
	}
	if r.SlowSeen() != 500 || logged.Load() != 500 {
		t.Fatalf("SlowSeen=%d logged=%d, want 500 each", r.SlowSeen(), logged.Load())
	}
	if got := len(r.Requests()); got != 8 {
		t.Fatalf("recent ring holds %d spans, want 8", got)
	}
	if got := len(r.Traces()); got != slowCapacity+4 {
		t.Fatalf("slow ring + reservoir hold %d spans, want %d", got, slowCapacity+4)
	}
}
