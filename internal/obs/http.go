package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"time"
)

// RequestsSchemaVersion stamps the debug endpoints' JSON envelopes so
// scripted consumers can detect shape changes. Bump it when the
// envelope (not the additive Span fields) changes incompatibly.
const RequestsSchemaVersion = 2

// NewMux assembles the debug endpoint:
//
//	/metrics           Prometheus text format, stable sorted names
//	/debug/requests    rec's flight recorder as JSON, newest first
//	/debug/traces      index of what rec's slow rule and reservoir
//	                   kept: the slow ring newest first, then the
//	                   reservoir
//	/debug/trace/<id>  one trace, looked up in everything rec still
//	                   holds, as Chrome trace-event JSON (load the
//	                   response in Perfetto); ?format=span returns the
//	                   raw Span record instead
//	/debug/spans       srv's ring as JSON, newest first: one record per
//	                   *traced* transaction with its phase attribution
//	                   (queue/parse/wait/exec/flush) and the client span
//	                   it was issued under
//	/debug/pprof/*     the standard net/http/pprof handlers
//
// The three list endpoints take the same query: ?n= caps the count and
// ?min_dur= keeps only entries at least that slow (e.g. ?min_dur=50ms);
// a malformed value is a 400 on all of them.
//
// rec is nil in a daemon with no request recorder: /debug/requests then
// serves an empty list and the trace endpoints are not mounted. srv is
// nil in a process that serves no memcached front; /debug/spans is then
// not mounted.
func NewMux(reg *Registry, rec *Recorder, srv *ServerRecorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		spans := []Span{}
		if rec != nil {
			spans = rec.Requests()
		}
		serveList(w, r, "requests", spans, func(sp *Span) int64 { return sp.TotalNS })
	})
	if rec != nil {
		mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
			spans := rec.Traces()
			index := make([]traceEntry, len(spans))
			for i, sp := range spans {
				index[i] = traceEntry{
					TraceID: sp.TraceID, Op: sp.Op, Start: sp.Start,
					Keys: sp.Keys, TotalNS: sp.TotalNS, Err: sp.Err,
				}
			}
			serveList(w, r, "traces", index, func(e *traceEntry) int64 { return e.TotalNS })
		})
		mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, r *http.Request) {
			id, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/debug/trace/"), 10, 64)
			if err != nil {
				http.Error(w, "bad trace id", http.StatusBadRequest)
				return
			}
			sp, ok := rec.Trace(id)
			if !ok {
				http.Error(w, "trace not found", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			if r.URL.Query().Get("format") == "span" {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				_ = enc.Encode(&sp)
				return
			}
			_ = WriteTraceEvents(w, []Span{sp})
		})
	}
	if srv != nil {
		mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, r *http.Request) {
			serveList(w, r, "spans", srv.Spans(), func(sp *ServerSpan) int64 { return sp.Timings.TotalNS() })
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// traceEntry is one /debug/traces index row: enough to pick a trace
// worth fetching whole from /debug/trace/<id>.
type traceEntry struct {
	TraceID uint64    `json:"trace_id"`
	Op      string    `json:"op"`
	Start   time.Time `json:"start"`
	Keys    int       `json:"keys"`
	TotalNS int64     `json:"total_ns"`
	Err     string    `json:"err,omitempty"`
}

// serveList is the list endpoints' one query parser and one envelope
// writer: it applies ?min_dur= and ?n= to list (newest first, owned by
// the caller) and writes {schema, count, <name>: list}.
func serveList[T any](w http.ResponseWriter, r *http.Request, name string, list []T, totalNS func(*T) int64) {
	q := r.URL.Query()
	if s := q.Get("min_dur"); s != "" {
		floor, err := time.ParseDuration(s)
		if err != nil {
			http.Error(w, "bad min_dur: "+err.Error(), http.StatusBadRequest)
			return
		}
		kept := list[:0]
		for i := range list {
			if totalNS(&list[i]) >= int64(floor) {
				kept = append(kept, list[i])
			}
		}
		list = kept
	}
	if s := q.Get("n"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "bad n: want a non-negative integer", http.StatusBadRequest)
			return
		}
		if n < len(list) {
			list = list[:n]
		}
	}
	body, err := json.MarshalIndent(list, "  ", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// Written out by hand: the keys keep this order whatever the list is
	// called.
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\n  \"schema\": %d,\n  \"count\": %d,\n  %q: %s\n}\n", RequestsSchemaVersion, len(list), name, body)
}

// ListenAndServe binds addr and serves handler in a background
// goroutine, returning the listener so the caller can report the bound
// address and close it on shutdown.
func ListenAndServe(addr string, handler http.Handler) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, handler) }()
	return ln, nil
}
