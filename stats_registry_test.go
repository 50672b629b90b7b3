package rnb_test

import (
	"fmt"
	"net"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"rnb"
	"rnb/internal/memcache"
	"rnb/internal/proxy"
)

// TestStatsIsTheRegistry boots backends, proxy and front the way
// rnbproxy does, drives traffic, a breaker trip and a join, and checks
// that the front's wire "stats" reply is a rendering of its registry —
// every unlabeled counter and gauge under the same name (memd_* bare)
// with the same value at rest, and nothing numeric besides — and that
// an rnbmemd backend still answers the ten memcached names.
func TestStatsIsTheRegistry(t *testing.T) {
	serve := func(srv *memcache.Server) string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		return ln.Addr().String()
	}
	dial := func(addr string) *memcache.Client {
		c, err := memcache.Dial(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	var backends []*memcache.Server
	var addrs []string
	for i := 0; i < 5; i++ {
		backends = append(backends, memcache.NewServer(memcache.NewStore(0)))
		addrs = append(addrs, serve(backends[i]))
	}
	cl, err := rnb.NewClient(addrs[:4], rnb.WithReplicas(3),
		rnb.WithFailureCooldown(time.Minute),
		rnb.WithTransitionWindow(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pxy := proxy.New(cl)
	front := memcache.NewServerBackend(pxy)
	pxy.RegisterMetrics(front.Registry())
	app := dial(serve(front))

	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("stats:%02d", i)
		if err := app.Set(&memcache.Item{Key: keys[i], Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if items, err := app.GetMulti(keys); err != nil || len(items) != len(keys) {
		t.Fatalf("multi-get through the proxy: %d/%d items, err %v", len(items), len(keys), err)
	}
	// Single gets go to the distinguished copy: the first one homed on
	// the closed backend trips its breaker and re-plans around it.
	backends[3].Close()
	for _, k := range keys {
		if _, err := app.Get(k); err != nil {
			t.Fatalf("get %s with one backend down: %v", k, err)
		}
	}
	if err := cl.AddServer(addrs[4]); err != nil {
		t.Fatal(err)
	}
	if !cl.WaitSettled(10 * time.Second) {
		t.Fatal("join never settled")
	}
	if _, err := app.GetMulti(keys); err != nil { // keys the empty newcomer now homes may miss
		t.Fatal(err)
	}

	// (a) The proxy: registry -> stats, then stats -> registry.
	st, err := app.Stats()
	if err != nil {
		t.Fatal(err)
	}
	inRegistry := map[string]bool{}
	front.Registry().Scalars(func(name string, v int64) {
		key := strings.TrimPrefix(name, "memd_")
		inRegistry[key] = true
		if got, ok := st[key]; !ok || got != strconv.FormatInt(v, 10) {
			t.Errorf("registry has %s = %d, stats answers %s = %q (present %t)", name, v, key, got, ok)
		}
	})
	notAMetric := regexp.MustCompile(`^proxy_server_\d+_failures$`)
	for key, v := range st {
		if _, err := strconv.ParseInt(v, 10, 64); err == nil && !inRegistry[key] && !notAMetric.MatchString(key) {
			t.Errorf("stats answers %s = %s, which the registry lacks", key, v)
		}
	}
	for _, moved := range []string{"proxy_requests", "rnb_transactions", "rnb_resilience_breaker_opened",
		"rnb_resilience_replans", "rnb_topology_joins", "rnb_server_errors", "cmd_get", "get_hits", "transactions"} {
		if st[moved] == "" || st[moved] == "0" {
			t.Errorf("the drive never moved %s (stats %q)", moved, st[moved])
		}
	}
	if st["proxy_server_3_state"] != "open" {
		t.Errorf("non-metric lines: proxy_server_3_state %q", st["proxy_server_3_state"])
	}

	// (b) An rnbmemd backend: today's ten memcached names, with the
	// values its own counters and store report.
	srv := backends[0]
	bst, err := dial(addrs[0]).Stats()
	if err != nil {
		t.Fatal(err)
	}
	ss, store := srv.Stats(), srv.Store()
	for name, want := range map[string]int64{
		"cmd_get":           int64(ss.CmdGet.Load()),
		"cmd_set":           int64(ss.CmdSet.Load()),
		"get_hits":          int64(ss.GetHits.Load()),
		"get_misses":        int64(ss.GetMisses.Load()),
		"transactions":      int64(ss.Transactions.Load()),
		"curr_connections":  ss.CurrConns.Load(),
		"total_connections": int64(ss.TotalConns.Load()),
		"curr_items":        int64(store.Len()),
		"bytes":             store.Bytes(),
		"evictions":         int64(store.Evictions()),
	} {
		if got, ok := bst[name]; !ok || got != strconv.FormatInt(want, 10) {
			t.Errorf("rnbmemd stats %s = %q (present %t), want %d", name, got, ok, want)
		}
	}
	if bst["curr_items"] == "0" || bst["cmd_set"] == "0" {
		t.Errorf("backend 0 stored nothing: %v", bst)
	}
}
