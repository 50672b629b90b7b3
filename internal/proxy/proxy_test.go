package proxy

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"testing"
	"time"

	"rnb"
	"rnb/internal/memcache"
	"rnb/internal/obs"
)

// stack spins up `backends` memcached servers, an RnB client over
// them, a proxy, and a front-end protocol server, returning a plain
// memcached client connected to the proxy — exactly how a legacy
// application would see it.
func stack(t *testing.T, backends, replicas int) (*memcache.Client, []*memcache.Server, *Proxy) {
	t.Helper()
	var addrs []string
	var servers []*memcache.Server
	for i := 0; i < backends; i++ {
		srv := memcache.NewServer(memcache.NewStore(0))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, ln.Addr().String())
		servers = append(servers, srv)
	}
	client, err := rnb.NewClient(addrs, rnb.WithReplicas(replicas))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	legacy, p := front(t, client)
	return legacy, servers, p
}

// front puts a proxy and its front-end protocol server over client the
// way rnbproxy does — the proxy's families go in the front's registry —
// and returns a plain memcached client connected to it.
func front(t *testing.T, client *rnb.Client) (*memcache.Client, *Proxy) {
	t.Helper()
	p := New(client)
	srv := memcache.NewServerBackend(p)
	p.RegisterMetrics(srv.Registry())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	legacy, err := memcache.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { legacy.Close() })
	return legacy, p
}

func TestProxySetGetRoundTrip(t *testing.T) {
	legacy, servers, _ := stack(t, 4, 3)
	if err := legacy.Set(&memcache.Item{Key: "k", Value: []byte("v"), Flags: 9}); err != nil {
		t.Fatal(err)
	}
	it, err := legacy.Get("k")
	if err != nil || string(it.Value) != "v" || it.Flags != 9 {
		t.Fatalf("round trip: %+v %v", it, err)
	}
	// The write was replicated 3 ways behind the scenes.
	copies := 0
	for _, srv := range servers {
		if _, err := srv.Store().Get("k"); err == nil {
			copies++
		}
	}
	if copies != 3 {
		t.Fatalf("%d backend copies, want 3", copies)
	}
}

func TestProxyMultiGetBundles(t *testing.T) {
	legacy, servers, _ := stack(t, 8, 3)
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%02d", i)
		if err := legacy.Set(&memcache.Item{Key: keys[i], Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	var before uint64
	for _, srv := range servers {
		before += srv.Stats().Transactions.Load()
	}
	items, err := legacy.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 40 {
		t.Fatalf("got %d items", len(items))
	}
	var after uint64
	for _, srv := range servers {
		after += srv.Stats().Transactions.Load()
	}
	// One legacy multi-get should cost far fewer than 8 backend
	// transactions thanks to bundling over 3 replicas.
	used := after - before
	if used > 6 {
		t.Fatalf("proxy used %d backend transactions for one multi-get", used)
	}
	// And the proxy's stats reflect it.
	st, err := legacy.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["proxy_requests"] != "1" {
		t.Fatalf("proxy_requests = %s", st["proxy_requests"])
	}
	if txns, _ := strconv.Atoi(st["proxy_backend_txns"]); uint64(txns) != used {
		t.Fatalf("proxy txns %s != observed %d", st["proxy_backend_txns"], used)
	}
}

func TestProxyAddReplaceSemantics(t *testing.T) {
	legacy, _, _ := stack(t, 4, 2)
	if err := legacy.Add(&memcache.Item{Key: "k", Value: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Add(&memcache.Item{Key: "k", Value: []byte("2")}); !errors.Is(err, memcache.ErrNotStored) {
		t.Fatalf("second add: %v", err)
	}
	if err := legacy.Replace(&memcache.Item{Key: "k", Value: []byte("3")}); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Replace(&memcache.Item{Key: "k", Value: []byte("4")}); !errors.Is(err, memcache.ErrNotStored) {
		t.Fatalf("replace after delete: %v", err)
	}
}

func TestProxyCASThroughDistinguished(t *testing.T) {
	legacy, _, _ := stack(t, 4, 3)
	if err := legacy.Set(&memcache.Item{Key: "k", Value: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	items, err := legacy.GetsMulti([]string{"k"})
	if err != nil || items["k"] == nil {
		t.Fatalf("gets: %v %v", items, err)
	}
	it := items["k"]
	it.Value = []byte("b")
	if err := legacy.CompareAndSwap(it); err != nil {
		t.Fatalf("cas with fresh token: %v", err)
	}
	// Stale token now conflicts.
	it.Value = []byte("c")
	if err := legacy.CompareAndSwap(it); !errors.Is(err, memcache.ErrCASConflict) {
		t.Fatalf("stale cas: %v", err)
	}
	// Value readable after CAS (replicas were dropped; round-2 +
	// write-back recover).
	got, err := legacy.Get("k")
	if err != nil || string(got.Value) != "b" {
		t.Fatalf("after cas: %v %v", got, err)
	}
}

func TestProxyDeleteAndMiss(t *testing.T) {
	legacy, servers, _ := stack(t, 4, 2)
	_ = legacy.Set(&memcache.Item{Key: "k", Value: []byte("v")})
	if err := legacy.Delete("k"); err != nil {
		t.Fatal(err)
	}
	for s, srv := range servers {
		if _, err := srv.Store().Get("k"); err == nil {
			t.Fatalf("copy survives on backend %d", s)
		}
	}
	if _, err := legacy.Get("k"); !errors.Is(err, memcache.ErrCacheMiss) {
		t.Fatalf("get after delete: %v", err)
	}
	if err := legacy.Delete("k"); !errors.Is(err, memcache.ErrCacheMiss) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestProxyTouchAndFlush(t *testing.T) {
	legacy, servers, _ := stack(t, 4, 2)
	_ = legacy.Set(&memcache.Item{Key: "k", Value: []byte("v")})
	if err := legacy.Touch("k", 1000); err != nil {
		t.Fatalf("touch: %v", err)
	}
	if err := legacy.FlushAll(); err != nil {
		t.Fatal(err)
	}
	for _, srv := range servers {
		if srv.Store().Len() != 0 {
			t.Fatal("flush_all did not reach all backends")
		}
	}
}

func TestProxyIncrementAndConcat(t *testing.T) {
	legacy, servers, _ := stack(t, 4, 3)
	if err := legacy.Set(&memcache.Item{Key: "c", Value: []byte("41")}); err != nil {
		t.Fatal(err)
	}
	v, err := legacy.Incr("c", 1)
	if err != nil || v != 42 {
		t.Fatalf("incr through proxy: %d %v", v, err)
	}
	// Replicas were invalidated by the mutation; only the distinguished
	// copy holds the value now.
	live := 0
	for _, srv := range servers {
		if _, err := srv.Store().Get("c"); err == nil {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("%d live copies after increment, want 1 (distinguished)", live)
	}
	// A multi-get repopulates via round 2 + write-back and sees 42.
	items, err := legacy.GetMulti([]string{"c"})
	if err != nil || string(items["c"].Value) != "42" {
		t.Fatalf("read after incr: %v %v", items, err)
	}
	if err := legacy.Append("c", []byte("!")); err != nil {
		t.Fatal(err)
	}
	it, err := legacy.Get("c")
	if err != nil || string(it.Value) != "42!" {
		t.Fatalf("append through proxy: %v %v", it, err)
	}
}

func TestProxyStatsEndToEnd(t *testing.T) {
	legacy, _, _ := stack(t, 4, 2)
	_ = legacy.Set(&memcache.Item{Key: "k", Value: []byte("v")})
	_, _ = legacy.Get("k")
	st, err := legacy.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["proxy_servers"] != "4" || st["proxy_replicas"] != "2" {
		t.Fatalf("proxy stats: %v", st)
	}
	if st["proxy_requests"] == "" || st["proxy_backend_txns"] == "" {
		t.Fatalf("missing counters: %v", st)
	}
}

// TestProxyStatsNoGhostSeriesAfterDrain resizes the tier behind the
// proxy and checks the "stats" surface: per-server keys are labeled by
// the stable slot index, a drained backend's keys vanish entirely (no
// ghost series), and the topology counters report the transition.
func TestProxyStatsNoGhostSeriesAfterDrain(t *testing.T) {
	var addrs []string
	for i := 0; i < 5; i++ {
		srv := memcache.NewServer(memcache.NewStore(0))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, ln.Addr().String())
	}
	client, err := rnb.NewClient(addrs, rnb.WithReplicas(3),
		rnb.WithTransitionWindow(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	legacy, _ := front(t, client)

	before, err := legacy.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for i := range addrs {
		if got := before[fmt.Sprintf("proxy_server_%d_addr", i)]; got != addrs[i] {
			t.Fatalf("server %d key: got %q, want %q (stats %v)", i, got, addrs[i], before)
		}
		if got := before[fmt.Sprintf("proxy_server_%d_phase", i)]; got != "active" {
			t.Fatalf("server %d phase: %q", i, got)
		}
	}

	const victim = 4
	if err := client.RemoveServer(addrs[victim]); err != nil {
		t.Fatal(err)
	}
	if !client.WaitSettled(10 * time.Second) {
		t.Fatal("drain never settled")
	}
	after, err := legacy.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{"addr", "phase", "state", "failures"} {
		if v, ok := after[fmt.Sprintf("proxy_server_%d_%s", victim, suffix)]; ok {
			t.Fatalf("ghost series for drained server: proxy_server_%d_%s=%q", victim, suffix, v)
		}
	}
	if after["proxy_servers"] != "4" {
		t.Fatalf("proxy_servers = %q after drain", after["proxy_servers"])
	}
	if after["rnb_topology_drains"] != "1" || after["rnb_topology_drains_completed"] != "1" {
		t.Fatalf("topology counters missing from stats: %v", after)
	}
}

// TestProxyTraceChaining follows one trace context through the whole
// chain: a traced legacy client sends `trace <id> <span>` to the proxy
// front end, the front server mints a span under the legacy client's
// span, the proxy continues the trace into the RnB client via
// GetMultiTraced, and every backend transaction records the same trace
// id parented under the client's fan-out spans.
func TestProxyTraceChaining(t *testing.T) {
	var addrs []string
	var backends []*memcache.Server
	for i := 0; i < 4; i++ {
		srv := memcache.NewServer(memcache.NewStore(0))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, ln.Addr().String())
		backends = append(backends, srv)
	}
	client, err := rnb.NewClient(addrs, rnb.WithReplicas(2),
		rnb.WithTracing(rnb.TraceConfig{SampleEvery: 1}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })

	p := New(client)
	front := memcache.NewServerBackend(p)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go front.Serve(ln)
	t.Cleanup(func() { front.Close() })

	legacy, err := memcache.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { legacy.Close() })

	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("chain-%02d", i)
		if err := legacy.Set(&memcache.Item{Key: keys[i], Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}

	legacy.SetTracing(true)
	app := obs.TraceContext{TraceID: 0xabcdef, Parent: 7}
	items, _, st, err := legacy.TracedGetMulti(app, keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(keys) {
		t.Fatalf("traced multiget returned %d items, want %d", len(items), len(keys))
	}
	if st == nil || st.TraceID != app.TraceID {
		t.Fatalf("front server timings: %+v, want trace %#x", st, app.TraceID)
	}

	// Hop 1: the proxy front end's span sits under the app's span.
	var frontSpan obs.ServerSpan
	found := false
	for _, ss := range front.Recorder().Spans() {
		if ss.ID == st.SpanID {
			frontSpan, found = ss, true
			break
		}
	}
	if !found {
		t.Fatalf("front server did not record span %d", st.SpanID)
	}
	if frontSpan.Parent != app.Parent || frontSpan.Timings.TraceID != app.TraceID {
		t.Fatalf("front span parent=%d trace=%#x, want %d/%#x",
			frontSpan.Parent, frontSpan.Timings.TraceID, app.Parent, app.TraceID)
	}

	// Hop 2: the RnB client's span adopted the trace and sits under the
	// front server's span.
	clientSpan, ok := client.Recorder().Trace(app.TraceID)
	if !ok {
		t.Fatal("RnB client kept no span for the chained trace")
	}
	if clientSpan.ParentSpan != frontSpan.ID {
		t.Fatalf("client span parent = %d, want front server span %d",
			clientSpan.ParentSpan, frontSpan.ID)
	}

	// Hop 3: every backend transaction carries the same trace id,
	// parented under one of the client's fan-out spans.
	issuing := map[uint64]bool{}
	for _, rtt := range clientSpan.RTTs {
		issuing[rtt.SpanID] = true
	}
	var traced int
	for i, srv := range backends {
		for _, ss := range srv.Recorder().Spans() {
			if ss.Timings.TraceID != app.TraceID {
				t.Fatalf("backend %d span %d has trace %#x, want %#x",
					i, ss.ID, ss.Timings.TraceID, app.TraceID)
			}
			if !issuing[ss.Parent] {
				t.Fatalf("backend %d span %d parent %d is no client fan-out span",
					i, ss.ID, ss.Parent)
			}
			traced++
		}
	}
	if traced == 0 || traced != len(clientSpan.RTTs) {
		t.Fatalf("backends recorded %d traced transactions, client issued %d",
			traced, len(clientSpan.RTTs))
	}
}
