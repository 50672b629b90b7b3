package rnb

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rnb/internal/memcache"
	"rnb/internal/obs"
)

// startServers launches n in-process memcached servers and returns
// their addresses plus the server handles.
func startServers(t testing.TB, n int, capacity int64) ([]string, []*memcache.Server) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*memcache.Server, n)
	for i := 0; i < n; i++ {
		srv := memcache.NewServer(memcache.NewStore(capacity))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
		servers[i] = srv
	}
	return addrs, servers
}

func newTestClient(t *testing.T, n int, opts ...Option) (*Client, []*memcache.Server) {
	t.Helper()
	addrs, servers := startServers(t, n, 0)
	cl, err := NewClient(addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	holdWriteBackClock(cl)
	return cl, servers
}

// writeBackClock is the injected clock behind the age bound of deferred
// write-backs: it moves only when a test advances it.
type writeBackClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *writeBackClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *writeBackClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// holdWriteBackClock stops the clock that ages queued write-backs on
// every slot cl has dialed so far. A test that expects
// a write-back to land with the next command then does not depend on
// that command following within two real milliseconds on a loaded box;
// one that expects it dropped advances the clock instead of sleeping.
func holdWriteBackClock(cl *Client) *writeBackClock {
	clk := &writeBackClock{t: time.Unix(1_700_000_000, 0)}
	for _, s := range cl.cur.Load().slots {
		s.conn.SetClock(clk.now)
	}
	return clk
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("user:%04d:status", i)
	}
	return out
}

func TestNewClientValidation(t *testing.T) {
	if _, err := NewClient(nil); err == nil {
		t.Fatal("no addresses accepted")
	}
	addrs, _ := startServers(t, 2, 0)
	if _, err := NewClient(addrs, WithReplicas(0)); err == nil {
		t.Fatal("zero replicas accepted")
	}
	// Replication clamps to server count.
	cl, err := NewClient(addrs, WithReplicas(10))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Replicas() != 2 {
		t.Fatalf("Replicas = %d, want clamp to 2", cl.Replicas())
	}
	if len(cl.Servers()) != 2 {
		t.Fatalf("Servers = %v", cl.Servers())
	}
}

func TestNewClientDialFailure(t *testing.T) {
	if _, err := NewClient([]string{"127.0.0.1:1"}, WithTimeout(200*time.Millisecond)); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	cl, _ := newTestClient(t, 4, WithReplicas(3))
	if err := cl.Set(&Item{Key: "k1", Value: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	it, err := cl.Get("k1")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "v1" {
		t.Fatalf("value %q", it.Value)
	}
	if _, err := cl.Get("missing"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("miss: %v", err)
	}
}

func TestSetWritesAllReplicas(t *testing.T) {
	cl, servers := newTestClient(t, 4, WithReplicas(3))
	if err := cl.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	copies := 0
	for _, srv := range servers {
		if _, err := srv.Store().Get("k"); err == nil {
			copies++
		}
	}
	if copies != 3 {
		t.Fatalf("found %d copies, want 3", copies)
	}
}

func TestGetMultiFetchesEverything(t *testing.T) {
	cl, _ := newTestClient(t, 8, WithReplicas(3))
	ks := keys(60)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: []byte("v-" + k)}); err != nil {
			t.Fatal(err)
		}
	}
	items, stats, err := cl.GetMulti(ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(ks) {
		t.Fatalf("got %d items, want %d", len(items), len(ks))
	}
	for _, k := range ks {
		if string(items[k].Value) != "v-"+k {
			t.Fatalf("wrong value for %s", k)
		}
	}
	if stats.Round2 != 0 {
		t.Fatalf("unexpected round-2 fetches: %+v", stats)
	}
	if stats.Transactions > 8 {
		t.Fatalf("transactions = %d, more than server count", stats.Transactions)
	}
}

func TestGetMultiBundlesBetterThanSingleReplica(t *testing.T) {
	ks := keys(40)
	run := func(replicas int) int {
		cl, _ := newTestClient(t, 8, WithReplicas(replicas))
		for _, k := range ks {
			if err := cl.Set(&Item{Key: k, Value: []byte("v")}); err != nil {
				t.Fatal(err)
			}
		}
		total := 0
		for trial := 0; trial < 5; trial++ {
			_, stats, err := cl.GetMulti(ks)
			if err != nil {
				t.Fatal(err)
			}
			total += stats.Transactions
		}
		return total
	}
	single, triple := run(1), run(3)
	if triple >= single {
		t.Fatalf("bundling did not help: %d vs %d transactions", triple, single)
	}
}

func TestGetMultiMissingEverywhere(t *testing.T) {
	cl, _ := newTestClient(t, 4, WithReplicas(2))
	_ = cl.Set(&Item{Key: "present", Value: []byte("v")})
	items, stats, err := cl.GetMulti([]string{"present", "absent-1", "absent-2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items["present"] == nil {
		t.Fatalf("items: %v", items)
	}
	// Absent items trigger a round-2 attempt at their distinguished
	// servers; they still come back empty, without error.
	if stats.Transactions == 0 {
		t.Fatal("no transactions recorded")
	}
}

func TestGetMultiRejectsDuplicates(t *testing.T) {
	cl, _ := newTestClient(t, 2)
	if _, _, err := cl.GetMulti([]string{"a", "a"}); err == nil {
		t.Fatal("duplicate keys accepted")
	}
}

func TestGetMultiEmpty(t *testing.T) {
	cl, _ := newTestClient(t, 2)
	items, stats, err := cl.GetMulti(nil)
	if err != nil || len(items) != 0 || stats.Transactions != 0 {
		t.Fatalf("empty GetMulti: %v %+v %v", items, stats, err)
	}
}

func TestGetMultiRecoversFromReplicaLoss(t *testing.T) {
	cl, servers := newTestClient(t, 4, WithReplicas(2))
	ks := keys(30)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate replica eviction: wipe the non-distinguished copy of
	// every key by deleting each key from all but its first replica...
	// simpler: flush one entire server; distinguished copies of its
	// items live elsewhere only if that server is not their home.
	// Use the paper's invariant instead: delete every key from every
	// server EXCEPT its distinguished one.
	for _, k := range ks {
		dist := cl.cur.Load().replicas(k)[0]
		for s, srv := range servers {
			if s != dist {
				srv.Store().Delete(k)
			}
		}
	}
	items, stats, err := cl.GetMulti(ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(ks) {
		t.Fatalf("recovered %d/%d items", len(items), len(ks))
	}
	if stats.Round2 == 0 {
		t.Fatal("expected round-2 fetches after replica loss")
	}
}

func TestWriteBackRepopulatesReplica(t *testing.T) {
	cl, servers := newTestClient(t, 4, WithReplicas(2))
	ks := keys(30)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range ks {
		dist := cl.cur.Load().replicas(k)[0]
		for s, srv := range servers {
			if s != dist {
				srv.Store().Delete(k)
			}
		}
	}
	if _, _, err := cl.GetMulti(ks); err != nil {
		t.Fatal(err)
	}
	// After write-back, a second fetch should need no round 2.
	_, stats, err := cl.GetMulti(ks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Round2 != 0 {
		t.Fatalf("round-2 fetches persist after write-back: %+v", stats)
	}
}

// newVirtualReplicaTier is §III-C-1's overbooked regime at its limit: n
// servers of one byte each, which accept pinned (distinguished) copies
// and refuse every other, at r = 3. Replicas therefore stay virtual, and
// every multi-get of the returned keys is the same request: a fan-out
// that misses what it planned on a replica, a round 2 that recovers it,
// and a write-back per recovered item that the server will refuse.
func newVirtualReplicaTier(tb testing.TB, n, nkeys int) (*Client, []string) {
	tb.Helper()
	addrs, _ := startServers(tb, n, 1)
	cl, err := NewClient(addrs, WithReplicas(3))
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	holdWriteBackClock(cl)
	ks := keys(nkeys)
	value := bytes.Repeat([]byte("v"), 100)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: value}); err != nil {
			tb.Fatal(err)
		}
	}
	return cl, ks
}

// BenchmarkRound2WriteBack is the recovery layer's own number: a
// 16-key multi-get over 8 servers whose replicas are all virtual, so
// each iteration pays round 2 and its write-backs (reported per op, with
// the transactions the request cost). A write-back that cost the read a
// round trip of its own shows here as its latency.
func BenchmarkRound2WriteBack(b *testing.B) {
	cl, ks := newVirtualReplicaTier(b, 8, 16)
	var txns, round2 int
	queued := cl.poolGauges.WriteBackQueued.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		items, stats, err := cl.GetMulti(ks)
		if err != nil || len(items) != len(ks) || stats.Round2 == 0 {
			b.Fatalf("%d items, %+v, err %v", len(items), stats, err)
		}
		txns += stats.Transactions
		round2 += stats.Round2
	}
	b.ReportMetric(float64(txns)/float64(b.N), "txns/op")
	b.ReportMetric(float64(round2)/float64(b.N), "round2/op")
	b.ReportMetric(float64(cl.poolGauges.WriteBackQueued.Load()-queued)/float64(b.N), "writebacks/op")
}

func TestGetMultiLimit(t *testing.T) {
	cl, _ := newTestClient(t, 8, WithReplicas(1))
	ks := keys(40)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	_, fullStats, err := cl.GetMulti(ks)
	if err != nil {
		t.Fatal(err)
	}
	items, limStats, err := cl.GetMultiLimit(ks, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) < 20 {
		t.Fatalf("limit fetch returned %d < 20 items", len(items))
	}
	if limStats.Transactions >= fullStats.Transactions {
		t.Fatalf("limit fetch no cheaper: %d vs %d", limStats.Transactions, fullStats.Transactions)
	}
	if _, _, err := cl.GetMultiLimit(ks, -1); err == nil {
		t.Fatal("negative minItems accepted")
	}
}

func TestGetMultiBudget(t *testing.T) {
	cl, _ := newTestClient(t, 8, WithReplicas(2))
	ks := keys(40)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	for _, budget := range []int{1, 2, 3} {
		items, stats, err := cl.GetMultiBudget(ks, budget)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Transactions > budget {
			t.Fatalf("budget %d exceeded: %d transactions", budget, stats.Transactions)
		}
		if len(items) == 0 {
			t.Fatalf("budget %d fetched nothing", budget)
		}
	}
	// Larger budgets fetch at least as much.
	a, _, _ := cl.GetMultiBudget(ks, 1)
	b, _, _ := cl.GetMultiBudget(ks, 4)
	if len(b) < len(a) {
		t.Fatalf("budget 4 fetched fewer items (%d) than budget 1 (%d)", len(b), len(a))
	}
	// Degenerate budgets.
	empty, stats, err := cl.GetMultiBudget(ks, 0)
	if err != nil || len(empty) != 0 || stats.Transactions != 0 {
		t.Fatalf("zero budget: %v %+v %v", empty, stats, err)
	}
}

// TestGetMultiBudgetAvoidsOpenBreaker is the regression test for the
// budgeted path planning without the breaker view: it used to hand the
// set-cover planner every server, so a dead one kept winning a slot of
// the hard cap and the request came back short. The victim is the server
// the budget-1 plan itself picks, which makes the outcome independent of
// the port-derived ring.
func TestGetMultiBudgetAvoidsOpenBreaker(t *testing.T) {
	cl, servers := newTestClient(t, 6, WithReplicas(2), WithFailureCooldown(time.Minute))
	ks := keys(60)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := cl.GetMultiBudget(ks, 1); err != nil {
		t.Fatal(err)
	}
	rtts := cl.RecentRequests()[0].RTTs // newest span first
	if len(rtts) != 1 {
		t.Fatalf("budget-1 request made %d round trips", len(rtts))
	}
	victim := rtts[0].Server
	servers[victim].Close()
	// One failed transaction opens the breaker.
	if _, stats, _ := cl.GetMultiBudget(ks, 1); stats.Failed != 1 {
		t.Fatalf("request against the killed server: %+v", stats)
	}
	if st := cl.ServerStates()[victim]; st.State != BreakerOpen {
		t.Fatalf("victim breaker is %v, want open", st.State)
	}
	for budget := 1; budget <= 3; budget++ {
		items, stats, err := cl.GetMultiBudget(ks, budget)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Failed != 0 || stats.Transactions != budget {
			t.Fatalf("budget %d: %+v, want %d transactions and none failed", budget, stats, budget)
		}
		if len(items) == 0 {
			t.Fatalf("budget %d fetched nothing", budget)
		}
		for _, rtt := range cl.RecentRequests()[0].RTTs {
			if rtt.Server == victim {
				t.Fatalf("budget %d spent a transaction on the dead server", budget)
			}
		}
	}
}

func TestLoaderFetchesTrueMisses(t *testing.T) {
	var loaderCalls int
	var loadedKeys []string
	loader := func(keys []string) (map[string][]byte, error) {
		loaderCalls++
		loadedKeys = append(loadedKeys, keys...)
		out := map[string][]byte{}
		for _, k := range keys {
			if k != "nonexistent" {
				out[k] = []byte("db:" + k)
			}
		}
		return out, nil
	}
	cl, _ := newTestClient(t, 4, WithReplicas(2), WithLoader(loader))
	_ = cl.Set(&Item{Key: "cached", Value: []byte("mem")})

	items, stats, err := cl.GetMulti([]string{"cached", "db-only", "nonexistent"})
	if err != nil {
		t.Fatal(err)
	}
	if string(items["cached"].Value) != "mem" {
		t.Fatal("cached value wrong")
	}
	if string(items["db-only"].Value) != "db:db-only" {
		t.Fatalf("loader value wrong: %v", items["db-only"])
	}
	if items["nonexistent"] != nil {
		t.Fatal("nonexistent key materialized")
	}
	if loaderCalls != 1 {
		t.Fatalf("loader called %d times, want 1", loaderCalls)
	}
	if stats.Loaded != 1 {
		t.Fatalf("stats.Loaded = %d", stats.Loaded)
	}

	// The loaded key is now cached: a second fetch needs no loader.
	loaderCalls = 0
	items, stats, err = cl.GetMulti([]string{"db-only"})
	if err != nil || loaderCalls != 0 || stats.Loaded != 0 {
		t.Fatalf("loaded key not cached: calls=%d stats=%+v err=%v", loaderCalls, stats, err)
	}
	if string(items["db-only"].Value) != "db:db-only" {
		t.Fatal("cached loaded value wrong")
	}
}

func TestLoaderErrorPropagates(t *testing.T) {
	boom := errors.New("db down")
	cl, _ := newTestClient(t, 2, WithLoader(func([]string) (map[string][]byte, error) {
		return nil, boom
	}))
	if _, _, err := cl.GetMulti([]string{"missing"}); !errors.Is(err, boom) {
		t.Fatalf("loader error lost: %v", err)
	}
}

func TestDelete(t *testing.T) {
	cl, servers := newTestClient(t, 4, WithReplicas(3))
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
	if err := cl.Delete("k"); err != nil {
		t.Fatal(err)
	}
	for s, srv := range servers {
		if _, err := srv.Store().Get("k"); err == nil {
			t.Fatalf("copy survives on server %d", s)
		}
	}
	if err := cl.Delete("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("second delete: %v", err)
	}
}

func TestUpdateClearsReplicasAndUpdatesDistinguished(t *testing.T) {
	cl, servers := newTestClient(t, 4, WithReplicas(3))
	_ = cl.Set(&Item{Key: "k", Value: []byte("old")})
	if err := cl.Update(&Item{Key: "k", Value: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	reps := cl.cur.Load().replicas("k")
	it, err := servers[reps[0]].Store().Get("k")
	if err != nil || string(it.Value) != "new" {
		t.Fatalf("distinguished copy: %v %v", it, err)
	}
	for _, s := range reps[1:] {
		if _, err := servers[s].Store().Get("k"); err == nil {
			t.Fatalf("stale replica survives on server %d", s)
		}
	}
	// A multi-get containing k still works (round 2 + write-back).
	items, _, err := cl.GetMulti([]string{"k"})
	if err != nil || string(items["k"].Value) != "new" {
		t.Fatalf("fetch after update: %v %v", items, err)
	}
}

// TestRefusedReplicaWriteLeavesNoStaleCopy: under overbooking a replica
// server full of pinned data refuses a Set's plain copy, and the client
// takes that to mean the replica stays virtual (§III-C-1). The server
// must then drop the copy it held, so no read, direct or through the
// client, returns the value the Set replaced.
func TestRefusedReplicaWriteLeavesNoStaleCopy(t *testing.T) {
	addrs, servers := startServers(t, 4, 4<<10)
	cl, err := NewClient(addrs, WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	holdWriteBackClock(cl)
	if err := cl.Set(&Item{Key: "k", Value: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	reps := cl.cur.Load().replicas("k")
	full := servers[reps[1]].Store()
	val := make([]byte, 100)
	for i := 0; i < 256; i++ {
		if err := full.SetPinned(&memcache.Item{Key: fmt.Sprintf("pin-%03d", i), Value: val}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Set(&Item{Key: "k", Value: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	for _, s := range reps {
		if it, err := servers[s].Store().Get("k"); err == nil && string(it.Value) != "v2" {
			t.Errorf("server %d still serves %q after Set(v2)", s, it.Value)
		}
	}
	for i := 0; i < 8; i++ {
		it, err := cl.Get("k")
		if err != nil || string(it.Value) != "v2" {
			t.Fatalf("Get after Set(v2): %v, %v", it, err)
		}
		items, _, err := cl.GetMulti([]string{"k", "other"})
		if err != nil || string(items["k"].Value) != "v2" {
			t.Fatalf("GetMulti after Set(v2): %v, %v", items, err)
		}
	}
}

func TestTransactionsCounter(t *testing.T) {
	cl, _ := newTestClient(t, 2)
	base := cl.Transactions()
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")}) // 2 replicas = 2 writes
	if got := cl.Transactions() - base; got == 0 {
		t.Fatal("transactions not counted")
	}
}

func TestAppendIncrementInvalidateReplicas(t *testing.T) {
	cl, servers := newTestClient(t, 4, WithReplicas(3))
	if err := cl.Set(&Item{Key: "n", Value: []byte("5")}); err != nil {
		t.Fatal(err)
	}
	v, err := cl.Increment("n", 2)
	if err != nil || v != 7 {
		t.Fatalf("Increment: %d %v", v, err)
	}
	v, err = cl.Increment("n", -3)
	if err != nil || v != 4 {
		t.Fatalf("negative Increment: %d %v", v, err)
	}
	// Only the distinguished copy survives a mutation.
	live := 0
	for _, srv := range servers {
		if _, err := srv.Store().Get("n"); err == nil {
			live++
		}
	}
	if live != 1 {
		t.Fatalf("%d live copies after mutation", live)
	}
	if err := cl.Append("n", []byte("!")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Prepend("n", []byte("#")); err != nil {
		t.Fatal(err)
	}
	it, err := cl.Get("n")
	if err != nil || string(it.Value) != "#4!" {
		t.Fatalf("after concat: %v %v", it, err)
	}
}

func TestHitchhikersReported(t *testing.T) {
	cl, _ := newTestClient(t, 4, WithReplicas(3))
	ks := keys(50)
	for _, k := range ks {
		_ = cl.Set(&Item{Key: k, Value: []byte("v")})
	}
	_, stats, err := cl.GetMulti(ks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Hitchhikers == 0 {
		t.Fatal("no hitchhikers with 3 replicas on 4 servers (premise: overlap is huge)")
	}
}

// TestGetMultiResultsOutliveTheirRecord: a multi-get's working record
// goes back to a pool when the call returns and the next request
// overwrites it, so nothing the caller got may point into it. Eight
// goroutines, each over its own keys and request sizes, keep every map
// they get back and check each one again after later requests — theirs
// and the others' — have reused the pool, and once more after all of
// them are done.
func TestGetMultiResultsOutliveTheirRecord(t *testing.T) {
	cl, _ := newTestClient(t, 4, WithReplicas(3))
	const goroutines, rounds = 8, 40
	value := func(key string) string { return "value of " + key }
	sets := make([][]string, goroutines)
	for g := range sets {
		for i := 0; i < 4+3*g; i++ {
			k := fmt.Sprintf("g%d:key%02d", g, i)
			sets[g] = append(sets[g], k)
			if err := cl.Set(&Item{Key: k, Value: []byte(value(k))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(ks []string, items map[string]*Item) error {
		if len(items) != len(ks) {
			return fmt.Errorf("%d items for %d keys", len(items), len(ks))
		}
		for _, k := range ks {
			if it := items[k]; it == nil || it.Key != k || string(it.Value) != value(k) {
				return fmt.Errorf("key %s: got %+v", k, it)
			}
		}
		return nil
	}
	kept := make([][]map[string]*Item, goroutines)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ks := sets[g]
			for r := 0; r < rounds; r++ {
				// Vary which prefix is asked, so records change size.
				ask := ks[:1+(r*7)%len(ks)]
				items, _, err := cl.GetMulti(ask)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %w", g, r, err)
					return
				}
				kept[g] = append(kept[g], items)
				for i, prev := range kept[g] {
					if err := check(ks[:1+(i*7)%len(ks)], prev); err != nil {
						errs <- fmt.Errorf("goroutine %d: round %d's result after round %d: %w", g, i, r, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for g := range kept {
		for i, items := range kept[g] {
			if err := check(sets[g][:1+(i*7)%len(sets[g])], items); err != nil {
				t.Fatalf("goroutine %d round %d, after every request: %v", g, i, err)
			}
		}
	}
}

// TestGetMultiResultNeverChanges is the first executable row of the
// oracle "no returned result changes after its request's pooled record
// is reused", on the text lane and on the pooled binary lane: request
// A's map is held while its keys are set to new values and more
// multi-gets than the flight recorder has slots read them back, reusing
// A's record, its span's RTT array in the recorder, its connections'
// slots and their read buffers. A's keys and values must not move.
func TestGetMultiResultNeverChanges(t *testing.T) {
	for _, lane := range []struct {
		name string
		opts []Option
	}{
		{"text", nil},
		{"pooled binary", []Option{WithPoolSize(4), WithBinaryProtocol()}},
	} {
		t.Run(lane.name, func(t *testing.T) {
			cl, _ := newTestClient(t, 4, append([]Option{WithReplicas(3)}, lane.opts...)...)
			ks := keys(16)
			for _, k := range ks {
				if err := cl.Set(&Item{Key: k, Value: []byte("old value of " + k)}); err != nil {
					t.Fatal(err)
				}
			}
			a, _, err := cl.GetMulti(ks)
			if err != nil || len(a) != len(ks) {
				t.Fatalf("request A: %d items, err %v", len(a), err)
			}
			for _, k := range ks {
				if err := cl.Set(&Item{Key: k, Value: []byte("new value of " + k)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < obs.DefaultRingSize+1; i++ {
				items, _, err := cl.GetMulti(ks)
				if err != nil || len(items) != len(ks) {
					t.Fatalf("request %d after A: %d items, err %v", i, len(items), err)
				}
				if k := ks[i%len(ks)]; string(items[k].Value) != "new value of "+k {
					t.Fatalf("request %d after A read %s = %q", i, k, items[k].Value)
				}
			}
			for _, k := range ks {
				if it := a[k]; it == nil || it.Key != k || string(it.Value) != "old value of "+k {
					t.Errorf("A's %s changed: %+v", k, it)
				}
			}
		})
	}
}
