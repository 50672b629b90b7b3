package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServerRecorderRing: Record feeds the phase histograms and the
// ring dumps newest first.
func TestServerRecorderRing(t *testing.T) {
	r := NewServerRecorder(4)
	for i := uint64(1); i <= 6; i++ {
		r.Record(ServerSpan{ID: i, Op: "get_multi", Keys: 3,
			Timings: ServerTimings{SpanID: i, QueueNS: 10, ParseNS: 20, WaitNS: 5, ExecNS: 30, FlushNS: 40}})
	}
	if r.Traced() != 6 {
		t.Fatalf("Traced = %d, want 6", r.Traced())
	}
	spans := r.Spans()
	if len(spans) != 4 || spans[0].ID != 6 || spans[3].ID != 3 {
		t.Fatalf("ring dump: %d spans, ids %d..%d; want 4 spans 6..3",
			len(spans), spans[0].ID, spans[len(spans)-1].ID)
	}
	for _, h := range []*Hist{&r.Queue, &r.Parse, &r.Wait, &r.Exec, &r.Flush} {
		if h.Count() != 6 {
			t.Fatalf("phase histogram count = %d, want 6", h.Count())
		}
	}
}

// TestServerRecorderMetrics: RegisterMetrics exports the memd_* phase
// families and the traced-transaction counter.
func TestServerRecorderMetrics(t *testing.T) {
	r := NewServerRecorder(4)
	r.Record(ServerSpan{ID: 1, Op: "get", Timings: ServerTimings{ExecNS: int64(time.Millisecond)}})
	reg := NewRegistry()
	r.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, family := range []string{
		"memd_queue_wait_seconds_count 1", "memd_parse_seconds_count 1",
		"memd_store_wait_seconds_count 1", "memd_exec_seconds_count 1",
		"memd_flush_seconds_count 1", "memd_traced_transactions 1",
	} {
		if !strings.Contains(out, family) {
			t.Fatalf("render missing %q:\n%s", family, out)
		}
	}
}

// TestServerRecorderConcurrent: Record vs Spans vs NextID under -race.
func TestServerRecorderConcurrent(t *testing.T) {
	r := NewServerRecorder(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := r.NextID()
				r.Record(ServerSpan{ID: id, Op: "get_multi",
					Timings: ServerTimings{SpanID: id, ExecNS: int64(i)}})
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Spans()
				r.Traced()
			}
		}()
	}
	wg.Wait()
	if r.Traced() != 800 {
		t.Fatalf("Traced = %d, want 800", r.Traced())
	}
}

// TestWriteTraceEvents: the exporter emits valid Chrome trace-event
// JSON with client phase slices, per-server RTT slices, and the nested
// queue/server attribution slices Perfetto renders.
func TestWriteTraceEvents(t *testing.T) {
	st := &ServerTimings{TraceID: 7, SpanID: 99, QueueNS: 1000, ParseNS: 500, WaitNS: 200, ExecNS: 2000, FlushNS: 300}
	sp := Span{
		ID: 1, TraceID: 7, Op: "get_multi", Start: time.Unix(1700000000, 0),
		Keys: 8, Transactions: 2, TotalNS: int64(40 * time.Microsecond),
		PlanNS: 1000, FanoutNS: 30000,
		RTTs: []TxnRTT{
			{Server: 0, Addr: "a:1", Keys: 5, Phase: "fanout", DurNS: 30000,
				SpanID: 2, QueueNS: 4000, ServerTimings: st},
			{Server: 1, Addr: "b:1", Keys: 3, Phase: "fanout", DurNS: 25000, SpanID: 3},
		},
	}
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, []Span{sp}); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
		DisplayUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.DisplayUnit != "ms" || len(out.TraceEvents) == 0 {
		t.Fatalf("bad envelope: unit=%q events=%d", out.DisplayUnit, len(out.TraceEvents))
	}
	byName := map[string]int{}
	for _, ev := range out.TraceEvents {
		if ev.Ph != "X" && ev.Ph != "M" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		byName[ev.Name]++
	}
	for _, want := range []string{
		"process_name", "thread_name", "get_multi", "plan", "fanout",
		"client queue", "srv queue", "parse", "exec", "lock wait", "flush",
	} {
		if byName[want] == 0 {
			t.Fatalf("exporter emitted no %q slice; got %v", want, byName)
		}
	}
	// Two servers -> two RTT threads plus the client thread.
	if byName["thread_name"] != 3 {
		t.Fatalf("thread_name count = %d, want 3", byName["thread_name"])
	}
}
