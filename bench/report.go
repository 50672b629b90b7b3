package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// metricDef fixes a metric's name and unit; BENCHMARK.json lists the
// same names (bench_test.go checks both ways).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"req_per_s", "1/s"},
	{"p50_us", "us"},
	{"tpr", "txns/req"},
	{"allocs_per_req", "1/req"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"workload.keys_per_req_mean", "keys"},
	{"workload.keys_per_req_p99", "keys"},
	{"workload.gen_us_per_req", "us"},
	{"hashring.replicas_ns_per_key", "ns"},
	{"hashring.replicas_allocs_per_key", "1/key"},
	{"core.build_us_per_req", "us"},
	{"core.build_allocs_per_req", "1/req"},
	{"core.planned_txns_per_req", "txns/req"},
	{"core.keys_per_txn", "keys/txn"},
	{"core.hitchhikers_per_req", "keys/req"},
	{"rnb.plan_us_per_req", "us"},
	{"rnb.fanout_us_per_req", "us"},
	{"rnb.round2_us_per_req", "us"},
	{"rnb.self_us_per_req", "us"},
	{"rnb.round2_txn_share", "ratio"},
	{"rnb.getmulti_p50_us", "us"},
	{"rnb.request_p99_us", "us"},
	{"rnb.request_cpu_us", "us"},
	{"rnb.set_p50_us", "us"},
	{"rnb.set_txns_per_op", "txns/op"},
	{"memcache.conn_getmulti_p50_us", "us"},
	{"memcache.conn_set_p50_us", "us"},
	{"memcache.conn_allocs_per_txn", "1/txn"},
	{"memcache.client_queue_us_per_txn", "us"},
	{"memcache.wire_us_per_txn", "us"},
	{"memcache.pool_pipeline_high_water", "count"},
	{"memcache.pool_replays", "count"},
	{"memcache.server_queue_us_per_txn", "us"},
	{"memcache.server_parse_us_per_txn", "us"},
	{"memcache.server_exec_us_per_txn", "us"},
	{"memcache.server_lockwait_us_per_txn", "us"},
	{"memcache.server_flush_us_per_txn", "us"},
	{"memcache.server_txns_per_req", "txns/req"},
	{"memcache.server_hit_ratio", "ratio"},
	{"memcache.store_get_ns_per_key", "ns"},
	{"memcache.store_set_ns_per_op", "ns"},
	{"memcache.store_evictions_per_set", "1/set"},
	{"memcache.store_bytes_per_user_byte", "ratio"},
	{"proxy.getmulti_p50_us", "us"},
	{"proxy.front_overhead_us_per_req", "us"},
	{"obs.tracing_overhead_share", "ratio"},
	{"calibrate.txn_cost_us", "us"},
	{"calibrate.item_cost_us", "us"},
	{"calibrate.txn_to_item_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds one run's metrics. It starts with every metric of
// its mode at 0, so a layer the workload bypasses reads 0, and rejects
// names the mode does not define.
type metricSet struct {
	defs   []metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: defs, values: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		m.values[d.name] = metricValue{Unit: d.unit}
	}
	return m
}

func (m *metricSet) set(name string, v float64) {
	mv, ok := m.values[name]
	if !ok {
		panic("bench: undefined metric " + name)
	}
	mv.Value = v
	m.values[name] = mv
}

// result is one run of one workload: what -out writes and
// bench/compare reads.
type result struct {
	Schema       string                 `json:"schema"`
	Workload     string                 `json:"workload"`
	Why          string                 `json:"why"`
	Mode         string                 `json:"mode"` // end_to_end | layers
	Seed         int64                  `json:"seed"`
	Seconds      float64                `json:"seconds"`
	Transport    string                 `json:"transport"`
	Clients      int                    `json:"clients"`
	GOMAXPROCS   int                    `json:"gomaxprocs"`
	NProc        int                    `json:"nproc"`
	GoVersion    string                 `json:"go_version"`
	GitRev       string                 `json:"git_rev"`
	PortBase     int                    `json:"port_base"`
	StreamSHA256 string                 `json:"stream_sha256"`
	Samples      int                    `json:"samples"`
	ItemsPerReq  float64                `json:"items_per_req"`
	Attempted    int                    `json:"attempted"`
	Failed       int                    `json:"failed"`
	FailShare    float64                `json:"fail_share"`
	HostSpinMS   [2]float64             `json:"host_spin_ms"`
	Noisy        bool                   `json:"noisy"`
	Claim        *string                `json:"claim"`
	Metrics      map[string]metricValue `json:"metrics"`
	// Slices are the end-to-end run's per-time-slice series, the values
	// the timing metrics are taken over.
	Slices map[string][]float64 `json:"slices,omitempty"`
	// Counts are the -layers run's fixed-count counters: the same seed
	// gives the same numbers.
	Counts map[string]uint64 `json:"counts,omitempty"`
	// Oracle lists violated consistency checks (-layers); empty is a pass.
	Oracle []string `json:"oracle_violations,omitempty"`

	defs []metricDef
}

// gitRev is stamped by run.sh (-ldflags -X).
var gitRev = "unknown"

func newResult(sp *spec, mode string, seed int64, seconds float64, m *metricSet) *result {
	return &result{
		Schema: "rnb-bench/1", Workload: sp.name, Why: sp.why, Mode: mode, Seed: seed, Seconds: seconds,
		Transport: "loopback", Clients: clients, GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GoVersion: runtime.Version(), GitRev: gitRev, Metrics: m.values, defs: m.defs,
	}
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Oracle) == 0 }

// print writes every metric by name with its unit, then the one-line
// JSON object the benchmark contract asks for, last.
func (r *result) print(w io.Writer) {
	fmt.Fprintf(w, "# %s mode=%s seed=%d seconds=%g transport=%s clients=%d GOMAXPROCS=%d nproc=%d %s rev=%s\n",
		r.Workload, r.Mode, r.Seed, r.Seconds, r.Transport, r.Clients, r.GOMAXPROCS, r.NProc, r.GoVersion, r.GitRev)
	fmt.Fprintf(w, "# stream_sha256=%s samples=%d items_per_req=%.3f attempted=%d failed=%d fail_share=%g host_spin_ms=%.2f/%.2f noisy=%v\n",
		r.StreamSHA256, r.Samples, r.ItemsPerReq, r.Attempted, r.Failed, r.FailShare, r.HostSpinMS[0], r.HostSpinMS[1], r.Noisy)
	for _, d := range r.defs {
		fmt.Fprintf(w, "%-20s %-40s %16.4f %s\n", r.Workload, d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, v := range r.Oracle {
		fmt.Fprintf(w, "# ORACLE VIOLATION: %s\n", v)
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, r.Metrics})
	fmt.Fprintf(w, "%s\n", line)
}
