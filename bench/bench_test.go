package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// smokeSizes shrink every workload to a fraction of a second.
var smokeSizes = sizes{
	graphFactor: 40, universe: 2000, warm: 200, measured: 2000,
	layerReqs: 300, replayOps: 100, calibItems: 2000, traceReqs: 20, setups: 1,
	spinIters: 1_000_000,
}

type benchmarkFile struct {
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// TestStreamIsSeeded pins that the request stream is a function of the
// seed alone.
func TestStreamIsSeeded(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b, c := generate(sp, 1, smokeSizes), generate(sp, 1, smokeSizes), generate(sp, 2, smokeSizes)
		if a.sha != b.sha {
			t.Errorf("%s: seed 1 gave %s then %s", sp.name, a.sha, b.sha)
		}
		if a.sha == c.sha {
			t.Errorf("%s: seeds 1 and 2 gave the same stream %s", sp.name, a.sha)
		}
	}
}

// TestSmoke runs every workload in both modes at tiny sizes and holds
// the output against BENCHMARK.json, both ways.
func TestSmoke(t *testing.T) {
	bm := readBenchmarkFile(t)
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	want := map[string]map[string]string{"end_to_end": {}, "layers": {}}
	for _, m := range bm.EndToEnd {
		want["end_to_end"][m.Name] = m.Unit
	}
	for _, m := range bm.PerLayer {
		want["layers"][m.Name] = m.Unit
	}
	if len(bm.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bm.Workloads), len(specs))
	}
	outDir := t.TempDir()
	for _, w := range bm.Workloads {
		sp := specByName(w.Name)
		if sp == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not have", w.Name)
			continue
		}
		e2e, err := runEndToEnd(sp, 1, 0.2, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		lay, err := runLayers(sp, 1, smokeSizes, outDir)
		if err != nil {
			t.Fatal(err)
		}
		again, err := runLayers(sp, 1, smokeSizes, outDir)
		if err != nil {
			t.Fatal(err)
		}
		if sp.overbook > 0 {
			// The client writes recovered items back in Go map order, so
			// on a bounded store which copy gets evicted first is not a
			// function of the seed; what the planner is asked and answers is.
			for _, c := range []map[string]uint64{lay.Counts, again.Counts} {
				for _, k := range []string{"client_txns", "round2_trips", "set_txns", "server_txns", "server_sets", "server_get_keys",
					"server_hits", "server_misses", "store_evictions", "traced_server_txns", "traced_rtts"} {
					delete(c, k)
				}
			}
		}
		if !reflect.DeepEqual(lay.Counts, again.Counts) {
			t.Errorf("%s: fixed-count counters differ between two runs of seed 1:\n%v\n%v", sp.name, lay.Counts, again.Counts)
		}
		for _, res := range []*result{e2e, lay} {
			var violations []string
			for _, v := range res.Oracle {
				// The race detector slows the harness's own checking
				// far beyond the clock noise the timing oracle allows.
				if !(raceEnabled && strings.HasPrefix(v, "timing:")) {
					violations = append(violations, v)
				}
			}
			if res.Failed != 0 || res.Attempted == 0 || len(violations) > 0 {
				t.Errorf("%s %s: %d of %d failed, oracle %v", sp.name, res.Mode, res.Failed, res.Attempted, violations)
			}
			got := map[string]string{}
			for name, mv := range res.Metrics {
				got[name] = mv.Unit
				if !nameOK.MatchString(name) {
					t.Errorf("%s: metric name %q has characters outside letters, digits, _ . -", sp.name, name)
				}
			}
			if !reflect.DeepEqual(got, want[res.Mode]) {
				t.Errorf("%s %s: emitted metrics and BENCHMARK.json differ:\n got %v\nwant %v", sp.name, res.Mode, got, want[res.Mode])
			}
		}
		for _, name := range []string{"req_per_s", "p50_us", "tpr", "allocs_per_req", "setup_s", "peak_rss_mb"} {
			if e2e.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", sp.name, name, e2e.Metrics[name].Value)
			}
		}
		data, err := os.ReadFile(filepath.Join(outDir, "trace-"+sp.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &trace); err != nil || len(trace.TraceEvents) == 0 {
			t.Errorf("%s: trace file does not load (%v) or is empty", sp.name, err)
		}
	}
}
