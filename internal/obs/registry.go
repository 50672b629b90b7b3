package obs

import (
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is a Prometheus metric type.
type Kind int

const (
	// Counter is a monotonically increasing total.
	Counter Kind = iota
	// Gauge is a value that can go up and down.
	Gauge
)

func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// Sample is one exported value of a family: an optional pre-rendered
// label set (built with Labels) and the value.
type Sample struct {
	Labels string
	Value  float64
}

// Labels renders a label set from key/value pairs, escaping values,
// e.g. Labels("server", "3", "addr", "10.0.0.1:11211").
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("obs: Labels needs key/value pairs")
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(kv[i])
		sb.WriteString("=\"")
		sb.WriteString(escapeLabel(kv[i+1]))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

var validName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// family is one registered metric name with exactly one source: load
// (an unlabeled counter or gauge), collect (a labeled family) or hist.
type family struct {
	name    string
	help    string
	kind    Kind
	load    func() int64
	collect func() []Sample
	hist    *Hist
}

// Registry is the one place a live metric is named: every family the
// process exports, under one stable namespace. Names are validated and
// sorted once, at registration — every rendering (/metrics, the
// memcached "stats" reply, rnbproxy -stats-every, METRICS.md) walks the
// same order. Sources run at scrape time; they must be safe for
// concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams []*family // sorted by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// wrongUnits are the suffixes that would mean a duration exported in
// anything but seconds.
var wrongUnits = []string{
	"_ns", "_nanos", "_nanoseconds", "_us", "_micros", "_microseconds",
	"_ms", "_millis", "_milliseconds", "_minutes", "_hours",
}

// register inserts f in sorted position, panicking on an invalid or
// duplicate name or a non-seconds unit suffix: all are programmer
// errors, caught by any test that touches the registry.
func (r *Registry) register(f *family) {
	if !validName.MatchString(f.name) {
		panic("obs: invalid metric name " + f.name)
	}
	for _, suf := range wrongUnits {
		if strings.HasSuffix(f.name, suf) {
			panic("obs: metric " + f.name + " ends in " + suf + "; durations are exported in seconds")
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.Search(len(r.fams), func(i int) bool { return r.fams[i].name >= f.name })
	if i < len(r.fams) && r.fams[i].name == f.name {
		panic("obs: duplicate metric name " + f.name)
	}
	r.fams = append(r.fams, nil)
	copy(r.fams[i+1:], r.fams[i:])
	r.fams[i] = f
}

// Register adds a labeled family whose samples are gathered by collect
// at scrape time.
func (r *Registry) Register(name, help string, kind Kind, collect func() []Sample) {
	r.register(&family{name: name, help: help, kind: kind, collect: collect})
}

// Counter adds an unlabeled monotone total read by load, typically an
// atomic.Uint64's Load.
func (r *Registry) Counter(name, help string, load func() uint64) {
	r.register(&family{name: name, help: help, kind: Counter, load: func() int64 { return int64(load()) }})
}

// Gauge adds an unlabeled level read by load, typically an
// atomic.Int64's Load.
func (r *Registry) Gauge(name, help string, load func() int64) {
	r.register(&family{name: name, help: help, kind: Gauge, load: load})
}

// Scalars calls visit with the current value of every unlabeled counter
// and gauge, in name order: the walk behind every rendering that is not
// the Prometheus exposition.
func (r *Registry) Scalars(visit func(name string, value int64)) {
	for _, f := range r.families() {
		if f.load != nil {
			visit(f.name, f.load())
		}
	}
}

func (r *Registry) families() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.fams...)
}

// durationBounds is the bucket ladder exported for duration
// histograms, in seconds: a 1-2.5-5 decade ladder from 10µs to 10s.
// The native log-linear buckets are far finer (~3.1% relative error);
// the ladder only shapes the Prometheus view.
var durationBounds = []float64{
	10e-6, 25e-6, 50e-6,
	100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3,
	10e-3, 25e-3, 50e-3,
	0.1, 0.25, 0.5,
	1, 2.5, 5, 10,
}

// RegisterDurationHist adds a histogram family over h. Durations are
// recorded in nanoseconds internally but exported in seconds, and the
// name must say so: anything not ending in "_seconds" panics — the
// guard that keeps ns/µs/ms unit drift out of the exported namespace.
func (r *Registry) RegisterDurationHist(name, help string, h *Hist) {
	if !strings.HasSuffix(name, "_seconds") {
		panic("obs: duration histogram " + name + " must be named *_seconds")
	}
	r.register(&family{name: name, help: help, hist: h})
}

// Render writes the registry in Prometheus text exposition format,
// families in name order.
func (r *Registry) Render(w io.Writer) error {
	for _, f := range r.families() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if f.hist != nil {
			if err := writeHist(w, f.name, f.hist); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		if f.load != nil {
			if _, err := fmt.Fprintf(w, "%s %d\n", f.name, f.load()); err != nil {
				return err
			}
			continue
		}
		for _, s := range f.collect() {
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.Labels, formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeHist(w io.Writer, name string, h *Hist) error {
	snap := h.Snapshot()
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	for _, le := range durationBounds {
		c := snap.CumulativeLE(int64(le * 1e9))
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatValue(le), c); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, snap.N); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatValue(float64(snap.SumNS)/1e9)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, snap.N)
	return err
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ServeHTTP serves the registry as a /metrics scrape handler.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.Render(w)
}
