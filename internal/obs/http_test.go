package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestListEndpointQueries: the three list endpoints share one query
// parser — a malformed n or min_dur is a 400 on each, and a good one
// trims the same way on each.
func TestListEndpointQueries(t *testing.T) {
	rec := NewRecorder(Config{SlowThreshold: time.Millisecond, SlowLog: func(*Span) {}}, nil)
	srv := NewServerRecorder(0)
	for i := uint64(1); i <= 4; i++ {
		// Entries 3 and 4 take 2ms, entries 1 and 2 take 1ms.
		total := time.Duration(1+i/3) * time.Millisecond
		rec.Finish(testSpan(i, i, total))
		srv.Record(ServerSpan{ID: i, Op: "get_multi", Timings: ServerTimings{ExecNS: int64(total)}})
	}
	mux := NewMux(NewRegistry(), rec, srv)
	for _, ep := range []struct{ path, list string }{
		{"/debug/requests", "requests"},
		{"/debug/traces", "traces"},
		{"/debug/spans", "spans"},
	} {
		for _, q := range []struct {
			query string
			code  int
			count int
		}{
			{"", http.StatusOK, 4},
			{"?n=3", http.StatusOK, 3},
			{"?n=0", http.StatusOK, 0},
			{"?n=99", http.StatusOK, 4},
			{"?min_dur=2ms", http.StatusOK, 2},
			{"?min_dur=2ms&n=1", http.StatusOK, 1},
			{"?n=garbage", http.StatusBadRequest, 0},
			{"?n=-1", http.StatusBadRequest, 0},
			{"?n=1.5", http.StatusBadRequest, 0},
			{"?min_dur=garbage", http.StatusBadRequest, 0},
			{"?min_dur=5", http.StatusBadRequest, 0}, // a bare number has no unit
			{"?n=2&min_dur=garbage", http.StatusBadRequest, 0},
		} {
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, httptest.NewRequest("GET", ep.path+q.query, nil))
			if w.Code != q.code {
				t.Errorf("GET %s%s = %d, want %d", ep.path, q.query, w.Code, q.code)
				continue
			}
			if q.code != http.StatusOK {
				continue
			}
			var env map[string]json.RawMessage
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Fatalf("GET %s%s: not JSON: %v\n%s", ep.path, q.query, err, w.Body)
			}
			var schema, count int
			var list []json.RawMessage
			if json.Unmarshal(env["schema"], &schema) != nil || json.Unmarshal(env["count"], &count) != nil ||
				json.Unmarshal(env[ep.list], &list) != nil || list == nil {
				t.Fatalf("GET %s%s: envelope is not {schema, count, %s: [...]}:\n%s", ep.path, q.query, ep.list, w.Body)
			}
			if schema != RequestsSchemaVersion || count != q.count || len(list) != q.count {
				t.Errorf("GET %s%s: schema=%d count=%d len=%d, want %d, %d, %d",
					ep.path, q.query, schema, count, len(list), RequestsSchemaVersion, q.count, q.count)
			}
		}
	}
}

// TestMuxMountsWhatItWasGiven: a daemon with no request recorder still
// answers /debug/requests (an empty list) but has no trace endpoints,
// and one with no server recorder has no /debug/spans.
func TestMuxMountsWhatItWasGiven(t *testing.T) {
	for _, tc := range []struct {
		name string
		mux  *http.ServeMux
		want map[string]int
	}{
		{"server only", NewMux(NewRegistry(), nil, NewServerRecorder(0)), map[string]int{
			"/metrics": 200, "/debug/requests": 200, "/debug/traces": 404, "/debug/trace/1": 404, "/debug/spans": 200}},
		{"client only", NewMux(NewRegistry(), NewRecorder(Config{}, nil), nil), map[string]int{
			"/metrics": 200, "/debug/requests": 200, "/debug/traces": 200, "/debug/trace/1": 404,
			"/debug/trace/x": 400, "/debug/spans": 404}},
	} {
		for path, code := range tc.want {
			w := httptest.NewRecorder()
			tc.mux.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
			if w.Code != code {
				t.Errorf("%s: GET %s = %d, want %d", tc.name, path, w.Code, code)
			}
		}
	}
}
