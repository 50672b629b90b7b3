package rnb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"rnb/internal/leakcheck"
	"rnb/internal/memcache"
	"rnb/internal/obs"
)

// traceTestKeys seeds n keys into the client and returns them.
func traceTestKeys(t *testing.T, cl *Client, n int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("trace:%03d", i)
		if err := cl.Set(&Item{Key: keys[i], Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// checkMergedTrace asserts the end-to-end tracing invariants on a kept
// trace: one causal trace id spanning the client span and every server
// transaction, server-reported phase timings on every round trip, the
// queue/wire/server attribution summing to the observed RTT, and the
// server-side flight recorders holding the matching child spans.
func checkMergedTrace(t *testing.T, sp obs.Span, byAddr map[string]*memcache.Server) {
	t.Helper()
	if sp.TraceID == 0 {
		t.Fatal("kept span has no trace id")
	}
	if len(sp.RTTs) == 0 {
		t.Fatal("kept span has no round trips")
	}
	for i, rtt := range sp.RTTs {
		if rtt.SpanID == 0 {
			t.Fatalf("rtt %d has no client span id: %+v", i, rtt)
		}
		st := rtt.ServerTimings
		if st == nil {
			t.Fatalf("rtt %d carries no server timings: %+v", i, rtt)
		}
		if st.TraceID != sp.TraceID {
			t.Fatalf("rtt %d server timings echo trace %d, want %d", i, st.TraceID, sp.TraceID)
		}
		if st.ExecNS <= 0 || st.FlushNS <= 0 {
			t.Fatalf("rtt %d server phases not populated: %+v", i, *st)
		}
		if st.WaitNS > st.ExecNS {
			t.Fatalf("rtt %d lock wait %d exceeds exec %d", i, st.WaitNS, st.ExecNS)
		}
		// The attribution identity: client queue + wire residual +
		// server total == observed RTT (WireNS clamps at zero, so allow
		// the degenerate over-attributed case only when clamped).
		sum := rtt.QueueNS + rtt.WireNS() + st.TotalNS()
		if rtt.WireNS() > 0 && sum != rtt.DurNS {
			t.Fatalf("rtt %d attribution: queue %d + wire %d + server %d = %d != rtt %d",
				i, rtt.QueueNS, rtt.WireNS(), st.TotalNS(), sum, rtt.DurNS)
		}
		if rtt.WireNS() == 0 && rtt.QueueNS+st.TotalNS() < rtt.DurNS {
			t.Fatalf("rtt %d under-attributed with zero wire residual: queue %d + server %d < rtt %d",
				i, rtt.QueueNS, st.TotalNS(), rtt.DurNS)
		}
		// Causal linkage: the server this trip went to recorded a child
		// span under the trip's client span. (Server span ids are
		// per-server, so the lookup must go through the trip's address.)
		srv := byAddr[rtt.Addr]
		if srv == nil {
			t.Fatalf("rtt %d went to unknown server %q", i, rtt.Addr)
		}
		var ss obs.ServerSpan
		ok := false
		for _, cand := range srv.Recorder().Spans() {
			if cand.ID == st.SpanID {
				ss, ok = cand, true
				break
			}
		}
		if !ok {
			t.Fatalf("rtt %d: no server span %d in %s's recorder", i, st.SpanID, rtt.Addr)
		}
		if ss.Parent != rtt.SpanID {
			t.Fatalf("server span %d parent = %d, want issuing client span %d", ss.ID, ss.Parent, rtt.SpanID)
		}
		if ss.Timings.TraceID != sp.TraceID {
			t.Fatalf("server span %d trace = %d, want %d", ss.ID, ss.Timings.TraceID, sp.TraceID)
		}
		if ss.Op != "get_multi" && ss.Op != "get" {
			t.Fatalf("server span %d op = %q", ss.ID, ss.Op)
		}
		if ss.Keys != rtt.Keys {
			t.Fatalf("server span %d keys = %d, want %d", ss.ID, ss.Keys, rtt.Keys)
		}
	}
}

// newTracedStack is newTestClient plus the address -> server mapping
// the linkage checks need to find each round trip's recorder.
func newTracedStack(t *testing.T, n int, opts ...Option) (*Client, []*memcache.Server, map[string]*memcache.Server) {
	t.Helper()
	addrs, servers := startServers(t, n, 0)
	cl, err := NewClient(addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	byAddr := make(map[string]*memcache.Server, n)
	for i, a := range addrs {
		byAddr[a] = servers[i]
	}
	return cl, servers, byAddr
}

// runTraceEndToEnd drives one traced multi-get through real servers and
// checks the merged trace plus the Perfetto export, under the given
// client options.
func runTraceEndToEnd(t *testing.T, opts ...Option) {
	t.Helper()
	leakcheck.Check(t)
	opts = append(opts,
		WithReplicas(2),
		// Trace everything; the reservoir has room for the one request.
		WithTracing(TraceConfig{SampleEvery: 1}),
	)
	cl, servers, byAddr := newTracedStack(t, 3, opts...)
	keys := traceTestKeys(t, cl, 24)

	items, stats, err := cl.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(keys) {
		t.Fatalf("GetMulti returned %d items, want %d", len(items), len(keys))
	}
	if stats.Transactions < 2 {
		t.Fatalf("want a fan-out (>= 2 transactions), got %d", stats.Transactions)
	}

	buf := cl.Recorder()
	if buf == nil {
		t.Fatal("Recorder is nil with tracing on")
	}
	traces := buf.Traces()
	var sp *obs.Span
	for i := range traces {
		if traces[i].Op == "get_multi" {
			sp = &traces[i]
			break
		}
	}
	if sp == nil {
		t.Fatalf("no get_multi trace kept (have %d traces)", len(traces))
	}
	checkMergedTrace(t, *sp, byAddr)

	// The same trace must round-trip through the id lookup.
	if got, ok := buf.Trace(sp.TraceID); !ok || got.ID != sp.ID {
		t.Fatalf("Trace(%d): ok=%v span=%d, want span %d", sp.TraceID, ok, got.ID, sp.ID)
	}

	// And export as Chrome trace-event JSON Perfetto can load.
	var out bytes.Buffer
	if err := obs.WriteTraceEvents(&out, []obs.Span{*sp}); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(out.Bytes(), &parsed); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) < 1+stats.Transactions {
		t.Fatalf("export holds %d events for %d transactions", len(parsed.TraceEvents), stats.Transactions)
	}

	// The tier counted exactly the traced transactions it served (the
	// whole test ran traced, so every multi-get transaction counts).
	var traced uint64
	for _, srv := range servers {
		traced += srv.Recorder().Traced()
	}
	if traced == 0 {
		t.Fatal("no server recorded a traced transaction")
	}
}

// TestTraceEndToEndText: merged causal trace over the text protocol's
// single-connection transport.
func TestTraceEndToEndText(t *testing.T) { runTraceEndToEnd(t) }

// TestTraceEndToEndPooled: same over the pooled text transport, where
// RTTs additionally carry the client-side pool queue wait.
func TestTraceEndToEndPooled(t *testing.T) { runTraceEndToEnd(t, WithPoolSize(2)) }

// TestTraceEndToEndBinary: same over the binary protocol (quiet-get
// runs with a binOpTrace context frame).
func TestTraceEndToEndBinary(t *testing.T) { runTraceEndToEnd(t, WithBinaryProtocol()) }

// TestTraceExternalContext: GetMultiTraced adopts a caller-supplied
// context — the proxy chaining primitive — bypassing the head sampler
// and parenting the client span under the caller's span.
func TestTraceExternalContext(t *testing.T) {
	leakcheck.Check(t)
	cl, _, byAddr := newTracedStack(t, 3,
		WithReplicas(2),
		WithTracing(TraceConfig{SampleEvery: 1}),
	)
	keys := traceTestKeys(t, cl, 12)

	ext := obs.TraceContext{TraceID: 0xfeed, Parent: 0xbeef}
	if _, _, err := cl.GetMultiTraced(ext, keys); err != nil {
		t.Fatal(err)
	}
	sp, ok := cl.Recorder().Trace(0xfeed)
	if !ok {
		t.Fatal("externally-identified trace not kept")
	}
	if sp.ParentSpan != 0xbeef {
		t.Fatalf("span parent = %d, want the external parent 0xbeef", sp.ParentSpan)
	}
	checkMergedTrace(t, sp, byAddr)
}

// TestTracingDisabledInvisible: without WithTracing the wire protocol
// is byte-identical to the untraced one — no server ever sees a trace
// frame, mints a span, or counts a traced transaction.
func TestTracingDisabledInvisible(t *testing.T) {
	leakcheck.Check(t)
	cl, servers := newTestClient(t, 3, WithReplicas(2))
	keys := traceTestKeys(t, cl, 12)
	for i := 0; i < 3; i++ {
		if _, _, err := cl.GetMulti(keys); err != nil {
			t.Fatal(err)
		}
	}
	if n := cl.Recorder().Started(); n != 0 {
		t.Fatalf("head sampler started %d traces without WithTracing", n)
	}
	for i, srv := range servers {
		if n := srv.Recorder().Traced(); n != 0 {
			t.Fatalf("server %d counted %d traced transactions with tracing off", i, n)
		}
		if spans := srv.Recorder().Spans(); len(spans) != 0 {
			t.Fatalf("server %d recorded %d spans with tracing off", i, len(spans))
		}
	}
}

// TestTracingDifferential reruns the three-way transport differential
// with tracing enabled on every client: identical seeded multi-gets
// (misses included) through traced text single-connection, text
// pooled, and binary pooled clients must match an untraced reference
// exactly — tracing changes attribution, never results.
func TestTracingDifferential(t *testing.T) {
	addrs, _ := startServers(t, 4, 0)
	ref, err := NewClient(addrs, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })
	traced := map[string]*Client{}
	for name, extra := range map[string][]Option{
		"single": nil,
		"pooled": {WithPoolSize(4)},
		"binary": {WithPoolSize(4), WithBinaryProtocol()},
	} {
		opts := append([]Option{WithReplicas(2),
			WithTracing(TraceConfig{SampleEvery: 1})}, extra...)
		cl, err := NewClient(addrs, opts...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(func() { cl.Close() })
		traced[name] = cl
	}

	ks := keys(100)
	for i, k := range ks {
		if i%4 == 3 {
			continue // deliberate misses
		}
		if err := ref.Set(&Item{Key: k, Value: []byte("val:" + k)}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		perm := rng.Perm(len(ks))
		sub := make([]string, 0, 30)
		for _, idx := range perm[:1+rng.Intn(30)] {
			sub = append(sub, ks[idx])
		}
		want, _, err := ref.GetMulti(sub)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		for name, cl := range traced {
			got, _, err := cl.GetMulti(sub)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d: traced %s returned %d items, untraced reference %d",
					round, name, len(got), len(want))
			}
			for k, it := range want {
				g, ok := got[k]
				if !ok || !bytes.Equal(g.Value, it.Value) {
					t.Fatalf("round %d: traced %s diverges from reference on %s", round, name, k)
				}
			}
		}
	}
	for name, cl := range traced {
		if cl.Recorder().Finished() == 0 {
			t.Fatalf("%s client finished no traces — the differential ran untraced", name)
		}
	}
}

// TestTraceLookupCoversFlightRecorder: a trace id /debug/requests is
// showing must resolve at /debug/trace/<id> even when neither the slow
// rule nor the reservoir kept it — the lookup covers every retention
// rule, the flight recorder included.
func TestTraceLookupCoversFlightRecorder(t *testing.T) {
	leakcheck.Check(t)
	cl, _, _ := newTracedStack(t, 3,
		WithReplicas(2),
		WithTracing(TraceConfig{SampleEvery: 1, ReservoirCapacity: -1}),
	)
	keys := traceTestKeys(t, cl, 12)
	for i := 0; i < 3; i++ {
		if _, _, err := cl.GetMulti(keys); err != nil {
			t.Fatal(err)
		}
	}
	mux := obs.NewMux(obs.NewRegistry(), cl.Recorder(), nil)
	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}
	var dump struct {
		Requests []obs.Span `json:"requests"`
	}
	if err := json.Unmarshal(get("/debug/requests").Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Requests) != 3 {
		t.Fatalf("/debug/requests lists %d spans, want 3", len(dump.Requests))
	}
	for _, sp := range dump.Requests {
		if sp.TraceID == 0 {
			t.Fatalf("span %d carries no trace id with SampleEvery 1", sp.ID)
		}
		if rec := get(fmt.Sprintf("/debug/trace/%d", sp.TraceID)); rec.Code != http.StatusOK {
			t.Fatalf("/debug/trace/%d = %d, want 200: /debug/requests is showing this trace", sp.TraceID, rec.Code)
		}
		var got obs.Span
		rec := get(fmt.Sprintf("/debug/trace/%d?format=span", sp.TraceID))
		if err := json.Unmarshal(rec.Body.Bytes(), &got); rec.Code != http.StatusOK || err != nil || got.ID != sp.ID {
			t.Fatalf("/debug/trace/%d?format=span = %d, span %d (err %v); want 200, span %d",
				sp.TraceID, rec.Code, got.ID, err, sp.ID)
		}
	}
}
