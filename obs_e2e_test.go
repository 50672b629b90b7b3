package rnb

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rnb/internal/leakcheck"
	"rnb/internal/obs"
)

// TestObservabilityEndToEnd drives real multi-gets through a client
// with tracing on and checks the whole observability chain: span
// records in the flight recorder, phase histograms, the metric
// registry render, and the HTTP debug mux.
func TestObservabilityEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	addrs, _ := startServers(t, 3, 0)
	cl, err := NewClient(addrs,
		WithReplicas(2),
		WithObservability(ObsConfig{RingSize: 16}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("obs:%03d", i)
		if err := cl.Set(&Item{Key: keys[i], Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		items, _, err := cl.GetMulti(keys)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(keys) {
			t.Fatalf("GetMulti returned %d items, want %d", len(items), len(keys))
		}
	}

	// Span records: newest-first, fully populated.
	spans := cl.RecentRequests()
	if len(spans) != 5 {
		t.Fatalf("flight recorder holds %d spans, want 5", len(spans))
	}
	sp := spans[0]
	if sp.Op != "get_multi" || sp.Keys != len(keys) {
		t.Fatalf("span op=%q keys=%d, want get_multi/%d", sp.Op, sp.Keys, len(keys))
	}
	if sp.TotalNS <= 0 || sp.FanoutNS <= 0 {
		t.Fatalf("span missing phase timings: %+v", sp)
	}
	if sp.ItemsFound != len(keys) || sp.Transactions <= 0 {
		t.Fatalf("span outcome: found=%d txns=%d", sp.ItemsFound, sp.Transactions)
	}
	if len(sp.RTTs) == 0 {
		t.Fatalf("span has no per-server round trips")
	}
	for _, rtt := range sp.RTTs {
		if rtt.Phase != "fanout" || rtt.DurNS <= 0 || rtt.Addr == "" {
			t.Fatalf("bad RTT record: %+v", rtt)
		}
	}
	if spans[0].ID <= spans[4].ID {
		t.Fatalf("spans not newest-first: %d .. %d", spans[0].ID, spans[4].ID)
	}

	// Histograms: every request observed, transports stamped RTTs.
	tr := cl.Recorder()
	if tr.Total.Count() != 5 {
		t.Fatalf("Total count = %d, want 5", tr.Total.Count())
	}
	if tr.RTT.Count() == 0 {
		t.Fatalf("transport RTT histogram empty")
	}
	if tr.Total.Quantile(0.99) <= 0 {
		t.Fatalf("p99 = 0 with 5 requests recorded")
	}

	// Registry render, served through the debug mux.
	reg := obs.NewRegistry()
	cl.RegisterMetrics(reg)
	mux := obs.NewMux(reg, tr, nil)

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"rnb_request_duration_seconds_bucket{le=",
		"rnb_request_duration_seconds_count 5",
		"rnb_plan_duration_seconds_count",
		"rnb_transport_rtt_seconds_count",
		"rnb_transactions",
		"rnb_resilience_replans",
		`rnb_server_breaker_state{server="0",addr=`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?n=2", nil))
	var dump struct {
		Count    int        `json:"count"`
		Requests []obs.Span `json:"requests"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("/debug/requests not JSON: %v\n%s", err, rec.Body.String())
	}
	if dump.Count != 2 || len(dump.Requests) != 2 {
		t.Fatalf("/debug/requests?n=2 returned %d/%d spans", dump.Count, len(dump.Requests))
	}
	if dump.Requests[0].ID != sp.ID {
		t.Fatalf("dump not newest-first: id=%d want %d", dump.Requests[0].ID, sp.ID)
	}
}

// TestSlowRequestLogging wires a tiny threshold so every request is
// "slow" and checks each one is counted and logged.
func TestSlowRequestLogging(t *testing.T) {
	leakcheck.Check(t)
	logged := 0 // SlowLog runs on the calling goroutine
	addrs, _ := startServers(t, 2, 0)
	cl, err := NewClient(addrs,
		WithObservability(ObsConfig{
			RingSize:      4,
			SlowThreshold: time.Nanosecond,
			SlowLog:       func(*obs.Span) { logged++ },
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set(&Item{Key: "slow:a", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, _, err := cl.GetMulti([]string{"slow:a"}); err != nil {
			t.Fatal(err)
		}
	}
	tr := cl.Recorder()
	if tr.SlowSeen() != 4 {
		t.Fatalf("SlowSeen = %d, want 4", tr.SlowSeen())
	}
	if logged != 4 {
		t.Fatalf("SlowLog saw %d spans, want 4", logged)
	}
}

// TestObservabilityPooledTransport checks the pooled transport stamps
// RTTs too, and that pool gauges join the registry.
func TestObservabilityPooledTransport(t *testing.T) {
	leakcheck.Check(t)
	addrs, _ := startServers(t, 2, 0)
	cl, err := NewClient(addrs,
		WithPoolSize(2),
		WithObservability(ObsConfig{RingSize: 4}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set(&Item{Key: "pool:a", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.GetMulti([]string{"pool:a"}); err != nil {
		t.Fatal(err)
	}
	if cl.Recorder().RTT.Count() == 0 {
		t.Fatalf("pooled transport did not stamp RTTs")
	}
	reg := obs.NewRegistry()
	cl.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rnb_pool_") {
		t.Fatalf("registry missing pool gauges:\n%s", sb.String())
	}
}

// scalars renders cl's non-zero counters and gauges, " name=value"
// each, for failure messages.
func scalars(cl *Client) string {
	reg := obs.NewRegistry()
	cl.RegisterMetrics(reg)
	var sb strings.Builder
	reg.Scalars(func(name string, v int64) {
		if v != 0 {
			fmt.Fprintf(&sb, " %s=%d", name, v)
		}
	})
	return sb.String()
}
