package rnb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestBatcherMergesConcurrentRequests(t *testing.T) {
	cl, _ := newTestClient(t, 8, WithReplicas(3))
	ks := keys(40)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	before := cl.Transactions()
	b := cl.NewBatcher(4, 100*time.Millisecond)
	defer b.Close()

	var wg sync.WaitGroup
	results := make([]map[string]*Item, 4)
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each caller wants a 10-key slice of the 40.
			results[i], _, errs[i] = b.GetMulti(ks[i*10 : (i+1)*10])
		}(i)
	}
	wg.Wait()
	for i := 0; i < 4; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(results[i]) != 10 {
			t.Fatalf("caller %d got %d items", i, len(results[i]))
		}
		for _, k := range ks[i*10 : (i+1)*10] {
			if results[i][k] == nil {
				t.Fatalf("caller %d missing key %s", i, k)
			}
		}
		// No leakage of other callers' keys.
		for k := range results[i] {
			found := false
			for _, own := range ks[i*10 : (i+1)*10] {
				if k == own {
					found = true
				}
			}
			if !found {
				t.Fatalf("caller %d got foreign key %s", i, k)
			}
		}
	}
	// The merged fetch should use far fewer transactions than 4 separate
	// fetches would: it runs as ONE plan.
	used := cl.Transactions() - before
	if used > 8 {
		t.Fatalf("merged batch used %d transactions", used)
	}
}

func TestBatcherOverlappingKeys(t *testing.T) {
	cl, _ := newTestClient(t, 4, WithReplicas(2))
	ks := keys(10)
	for _, k := range ks {
		_ = cl.Set(&Item{Key: k, Value: []byte("v")})
	}
	b := cl.NewBatcher(2, time.Second)
	defer b.Close()
	var wg sync.WaitGroup
	var r1, r2 map[string]*Item
	wg.Add(2)
	go func() { defer wg.Done(); r1, _, _ = b.GetMulti(ks[:6]) }()
	go func() { defer wg.Done(); r2, _, _ = b.GetMulti(ks[4:]) }()
	wg.Wait()
	if len(r1) != 6 || len(r2) != 6 {
		t.Fatalf("overlap handling: %d and %d items", len(r1), len(r2))
	}
	// The shared keys must appear in both results.
	for _, k := range ks[4:6] {
		if r1[k] == nil || r2[k] == nil {
			t.Fatalf("shared key %s missing from a caller", k)
		}
	}
}

func TestBatcherDelayFlush(t *testing.T) {
	cl, _ := newTestClient(t, 4)
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
	b := cl.NewBatcher(100, 20*time.Millisecond) // count will not trigger
	defer b.Close()
	start := time.Now()
	items, _, err := b.GetMulti([]string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 {
		t.Fatalf("items: %v", items)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Fatalf("flushed after %v, before the delay window", elapsed)
	}
}

func TestBatcherImmediateWhenNoDelay(t *testing.T) {
	cl, _ := newTestClient(t, 4)
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
	b := cl.NewBatcher(100, 0)
	defer b.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := b.GetMulti([]string{"k"}); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("zero-delay batcher did not flush immediately")
	}
}

func TestBatcherFlushAndClose(t *testing.T) {
	cl, _ := newTestClient(t, 4)
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
	b := cl.NewBatcher(100, time.Hour) // nothing flushes on its own
	done := make(chan error, 1)
	go func() {
		_, _, err := b.GetMulti([]string{"k"})
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	b.Flush()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Flush did not release the caller")
	}
	b.Close()
	if _, _, err := b.GetMulti([]string{"k"}); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("closed batcher: %v", err)
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
	// One failed transaction opens the breaker (threshold 1).
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

func TestBatcherManyWaves(t *testing.T) {
	cl, _ := newTestClient(t, 4, WithReplicas(2))
	for i := 0; i < 20; i++ {
		_ = cl.Set(&Item{Key: fmt.Sprintf("w%02d", i), Value: []byte("v")})
	}
	b := cl.NewBatcher(3, 5*time.Millisecond)
	defer b.Close()
	for wave := 0; wave < 5; wave++ {
		var wg sync.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				k := fmt.Sprintf("w%02d", (i*7)%20)
				items, _, err := b.GetMulti([]string{k})
				if err != nil || items[k] == nil {
					t.Errorf("wave fetch %s: %v %v", k, items, err)
				}
			}(i)
		}
		wg.Wait()
	}
}
