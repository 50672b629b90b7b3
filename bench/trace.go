package main

import (
	"encoding/json"
	"os"
	"time"

	"rnb/internal/obs"
)

// hspan is one harness span: a name, an interval, the span that caused
// it and the request both belong to. IDs are 1-based; parent 0 is none.
type hspan struct {
	id, parent int
	req        int
	name       string
	tid        int
	startNS    int64
	durNS      int64
}

// Trace-file lanes: the request and the client's phases on one, every
// server's round trips on its own (fan-out overlaps in time), and the
// isolated replays apart from both.
const (
	tidRequest = 0
	tidServer0 = 1
	tidReplay  = 100
)

// recorder keeps the spans of the first limit requests in memory; the
// file is written when the run ends.
type recorder struct {
	zero  time.Time
	limit int
	spans []hspan
}

// add records a span of request req and returns its id (0 when req is
// beyond the limit).
func (r *recorder) add(req int, name string, parent, tid int, startNS, durNS int64) int {
	if req >= r.limit {
		return 0
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, hspan{id: id, parent: parent, req: req, name: name, tid: tid, startNS: startNS, durNS: durNS})
	return id
}

// replay records one isolated layer call made with request req's inputs.
func (r *recorder) replay(req int, name string, start time.Time, durNS int64) {
	r.add(req, name, 0, tidReplay, int64(start.Sub(r.zero)), durNS)
}

// request records one traced request: the harness's own span around the
// call, and under it the program's read-outs for that request as child
// spans. The program reports phase durations and round-trip offsets,
// not phase start times, so phases are laid end to end from the
// client's start and a round trip's parts end to end inside it.
func (r *recorder) request(req int, startNS, durNS int64, sp *obs.Span) {
	root := r.add(req, "request", 0, tidRequest, startNS, durNS)
	if root == 0 {
		return
	}
	at := int64(sp.Start.Sub(r.zero))
	client := r.add(req, "rnb."+sp.Op, root, tidRequest, at, sp.TotalNS)
	phases := map[string]int{}
	t := at
	for _, ph := range []struct {
		name string
		ns   int64
	}{{"plan", sp.PlanNS}, {"fanout", sp.FanoutNS}, {"round2", sp.Round2NS}} {
		phases[ph.name] = r.add(req, "rnb."+ph.name, client, tidRequest, t, ph.ns)
		t += ph.ns
	}
	phases["replan"] = phases["fanout"]
	for i := range sp.RTTs {
		rt := &sp.RTTs[i]
		tid := tidServer0 + rt.Server
		t := at + rt.OffsetNS
		txn := r.add(req, "memcache.txn", phases[rt.Phase], tid, t, rt.DurNS)
		st := rt.ServerTimings
		if st == nil {
			continue
		}
		for _, part := range []struct {
			name string
			ns   int64
		}{
			{"memcache.client_queue", rt.QueueNS}, {"memcache.wire", rt.WireNS()},
			{"memcache.server_queue", st.QueueNS}, {"memcache.server_parse", st.ParseNS},
			{"memcache.server_exec", st.ExecNS}, {"memcache.server_flush", st.FlushNS},
		} {
			id := r.add(req, part.name, txn, tid, t, part.ns)
			if part.name == "memcache.server_exec" {
				r.add(req, "memcache.server_lockwait", id, tid, t, st.WaitNS)
			}
			t += part.ns
		}
	}
}

// write dumps the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto).
func (r *recorder) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", TS: float64(s.startNS) / 1e3, Dur: float64(s.durNS) / 1e3, PID: 1, TID: s.tid,
			Args: map[string]int{"id": s.id, "parent": s.parent, "request": s.req},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
