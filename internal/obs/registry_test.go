package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestSortedDeterministicOutput registers families out of order and
// checks every render walks the same sorted sequence — the fix for
// stats output that used to follow map iteration order.
func TestSortedDeterministicOutput(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta_total", "alpha_total", "mid_total"} {
		name := name
		r.Counter(name, "test.", func() uint64 { return 1 })
	}
	first := render(t, r)
	ia := strings.Index(first, "alpha_total")
	im := strings.Index(first, "mid_total")
	iz := strings.Index(first, "zeta_total")
	if !(ia < im && im < iz) {
		t.Fatalf("families not sorted:\n%s", first)
	}
	for i := 0; i < 10; i++ {
		if got := render(t, r); got != first {
			t.Fatalf("render %d differs from first:\n%s\nvs\n%s", i, got, first)
		}
	}
}

// TestScalarsWalk: the typed helpers keep their kind, the walk visits
// exactly the unlabeled counters and gauges in name order — no labeled
// family, no histogram — and reads live values.
func TestScalarsWalk(t *testing.T) {
	r := NewRegistry()
	var hits atomic.Uint64
	var depth atomic.Int64
	r.Gauge("t_depth", "test.", depth.Load)
	r.Counter("t_hits", "test.", hits.Load)
	r.Register("t_labeled", "test.", Gauge, func() []Sample { return []Sample{{Labels: Labels("k", "v"), Value: 7}} })
	r.RegisterDurationHist("t_latency_seconds", "test.", &Hist{})
	walk := func() string {
		var sb strings.Builder
		r.Scalars(func(name string, v int64) { fmt.Fprintf(&sb, "%s=%d ", name, v) })
		return sb.String()
	}
	hits.Store(2)
	depth.Store(-3)
	if got := walk(); got != "t_depth=-3 t_hits=2 " {
		t.Fatalf("Scalars walked %q", got)
	}
	hits.Store(1 << 40) // live, and an integer on both renderings
	if got := walk(); got != "t_depth=-3 t_hits=1099511627776 " {
		t.Fatalf("Scalars walked %q", got)
	}
	out := render(t, r)
	for _, line := range []string{
		"# TYPE t_depth gauge", "t_depth -3",
		"# TYPE t_hits counter", "t_hits 1099511627776",
		`t_labeled{k="v"} 7`,
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
	}
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	zero := func() uint64 { return 0 }
	r.Counter("dup_total", "x.", zero)
	mustPanic(t, "duplicate name", func() { r.Counter("dup_total", "x.", zero) })
	mustPanic(t, "invalid name", func() { r.Counter("bad name", "x.", zero) })
	for _, name := range []string{"wait_ms", "rtt_ns", "lag_micros", "age_minutes"} {
		mustPanic(t, "non-seconds unit suffix "+name, func() { r.Counter(name, "x.", zero) })
	}
	mustPanic(t, "duration histogram without _seconds suffix", func() {
		r.RegisterDurationHist("latency_ms", "x.", &Hist{})
	})
	mustPanic(t, "odd Labels", func() { Labels("key") })
}

// TestHistogramRendering pins the Prometheus histogram layout: the
// seconds-unit ladder, cumulative buckets, +Inf, _sum, _count.
func TestHistogramRendering(t *testing.T) {
	h := &Hist{}
	h.Observe(5 * time.Millisecond)
	h.Observe(5 * time.Millisecond)
	h.Observe(2 * time.Second)
	r := NewRegistry()
	r.RegisterDurationHist("req_duration_seconds", "test.", h)
	out := render(t, r)
	for _, line := range []string{
		"# TYPE req_duration_seconds histogram",
		`req_duration_seconds_bucket{le="0.01"} 2`,
		`req_duration_seconds_bucket{le="2.5"} 3`,
		`req_duration_seconds_bucket{le="+Inf"} 3`,
		"req_duration_seconds_count 3",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("missing %q in:\n%s", line, out)
		}
	}
}

// TestLabels checks rendering and escaping.
func TestLabels(t *testing.T) {
	got := Labels("server", "3", "addr", `va"l\ue`)
	want := `{server="3",addr="va\"l\\ue"}`
	if got != want {
		t.Fatalf("Labels = %s, want %s", got, want)
	}
}

// TestServeHTTP checks the scrape handler end to end.
func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Gauge("up", "test.", func() int64 { return 1 })
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "up 1") {
		t.Fatalf("body missing sample:\n%s", rec.Body.String())
	}
}
