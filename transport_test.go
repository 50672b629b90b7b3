package rnb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"rnb/internal/chaos"
)

// TestJitteredBackoff pins the re-plan backoff's growth, jitter
// bounds, and the overflow fix: base << round used to overflow int64
// for large rounds, handing rand.Int63n a non-positive bound (panic).
func TestJitteredBackoff(t *testing.T) {
	cases := []struct {
		name  string
		base  time.Duration
		round int
		min   time.Duration // inclusive
		max   time.Duration // exclusive
	}{
		{"round0", 10 * time.Millisecond, 0, 5 * time.Millisecond, 15 * time.Millisecond},
		{"round3", 10 * time.Millisecond, 3, 40 * time.Millisecond, 120 * time.Millisecond},
		{"capped", 10 * time.Millisecond, 20, maxBackoff / 2, maxBackoff/2 + maxBackoff},
		{"shift-overflow", 10 * time.Millisecond, 62, maxBackoff / 2, maxBackoff/2 + maxBackoff},
		{"huge-round", time.Second, 1000, maxBackoff / 2, maxBackoff/2 + maxBackoff},
	}
	for _, tc := range cases {
		for i := 0; i < 50; i++ {
			d := jitteredBackoff(tc.base, tc.round)
			if d < tc.min || d >= tc.max {
				t.Fatalf("%s: backoff %v outside [%v, %v)", tc.name, d, tc.min, tc.max)
			}
		}
	}
	if d := jitteredBackoff(0, 5); d != 0 {
		t.Fatalf("zero base: %v", d)
	}
	if d := jitteredBackoff(-time.Second, 5); d != 0 {
		t.Fatalf("negative base: %v", d)
	}
}

// TestPooledClientStress is the concurrency battery's centerpiece: 64
// goroutines hammering one pooled client with mixed multi-gets, sets,
// and deletes. Run under -race (make race) it doubles as the data-race
// proof for the pipelined transport end to end — planner, fanout,
// pool routing, writer/reader demux, breakers, gauges. Values are a
// pure function of the key, so any demux cross-wiring surfaces as a
// corrupt read regardless of interleaving.
func TestPooledClientStress(t *testing.T) {
	cl, _ := newTestClient(t, 4, WithReplicas(3), WithPoolSize(4))
	const (
		G     = 64
		iters = 60
		space = 200
	)
	key := func(i int) string { return fmt.Sprintf("stress:%04d", i%space) }
	val := func(k string) []byte { return []byte("v:" + k) }
	// Pre-seed so early readers mostly hit.
	for i := 0; i < space; i++ {
		if err := cl.Set(&Item{Key: key(i), Value: val(key(i))}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < iters; i++ {
				switch g % 3 {
				case 0: // reader: bundled multi-get over a distinct-key block
					start := rng.Intn(space)
					n := 1 + rng.Intn(12)
					if start+n > space {
						n = space - start
					}
					ks := make([]string, 0, n)
					for j := 0; j < n; j++ {
						ks = append(ks, key(start+j))
					}
					items, _, err := cl.GetMulti(ks)
					if err != nil {
						errs <- fmt.Errorf("reader %d: %w", g, err)
						return
					}
					for k, it := range items {
						if !bytes.Equal(it.Value, val(k)) {
							errs <- fmt.Errorf("reader %d: %s cross-wired: %q", g, k, it.Value)
							return
						}
					}
				case 1: // writer
					k := key(rng.Intn(space))
					if err := cl.Set(&Item{Key: k, Value: val(k)}); err != nil {
						errs <- fmt.Errorf("writer %d: %w", g, err)
						return
					}
				default: // deleter (miss is fine: someone else got there)
					if err := cl.Delete(key(rng.Intn(space))); err != nil && !errors.Is(err, ErrCacheMiss) {
						errs <- fmt.Errorf("deleter %d: %w", g, err)
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
	if cl.Failures() != 0 {
		t.Fatalf("healthy tier recorded %d failures", cl.Failures())
	}
	g := cl.PoolGauges()
	if g == nil {
		t.Fatal("pooled client has no gauges")
	}
	if g.PipelineHighWater.Load() < 2 {
		t.Fatalf("pipeline high water %d: stress never pipelined", g.PipelineHighWater.Load())
	}
	if q, inf := g.Queued.Load(), g.InFlight.Load(); q != 0 || inf != 0 {
		t.Fatalf("gauges not drained after quiesce: queued=%d in_flight=%d", q, inf)
	}
}

// awaitGoroutines polls until the goroutine count drops back to the
// baseline (plus slack for runtime helpers) — the stdlib-only goleak
// substitute for the pool's writer/reader/reaper goroutines.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC() // nudge finalizer-held stacks
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d running, baseline %d\n%s", n, baseline, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// plannedServer returns a server the client's plan for ks sends a
// transaction to. Which servers that is depends on the port-derived
// ring, so a test that kills "server 0" and waits for the load to notice
// hangs on the rings where the plan never touches it.
func plannedServer(t *testing.T, cl *Client, ks []string) int {
	t.Helper()
	ids := make([]uint64, len(ks))
	for i, k := range ks {
		ids[i] = keyID(k)
	}
	plan, err := cl.cur.Load().planner.BuildAvoiding(ids, 0, nil)
	if err != nil || len(plan.Transactions) == 0 {
		t.Fatalf("no plan for %v: %v", ks, err)
	}
	return plan.Transactions[0].Server
}

// TestPooledClientChaosKillMidPipeline kills a backend while a pooled
// client has requests on the wire. In-flight requests must fail fast
// (not hang to the 5s timeout), the breaker must open, subsequent
// multi-gets must re-plan onto the survivors and return every item,
// and tearing the client down must leak no pool goroutines.
func TestPooledClientChaosKillMidPipeline(t *testing.T) {
	addrs, _, injectors := startChaosServers(t, 3,
		map[int]chaos.Profile{0: {Seed: 1}, 1: {Seed: 1}, 2: {Seed: 1}})
	// Baseline after the servers' accept loops are up: the leak check
	// below isolates the client's own goroutines.
	baseline := runtime.NumGoroutine()
	cl, err := NewClient(addrs,
		WithReplicas(2), WithPoolSize(4),
		WithFailureCooldown(time.Minute), // stays open for the whole test
		WithRetry(2, time.Millisecond),
		WithTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ks := keys(60)
	seedKeys(t, cl, ks)

	// Keep the pipeline busy while the axe falls.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cl.GetMulti(ks[:16]) // errors expected during the kill
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	victim := plannedServer(t, cl, ks[:16])
	start := time.Now()
	injectors[victim].Kill()
	// The kill must surface as failures quickly. Worst case per request
	// is one timed-out attempt plus the single idempotent replay —
	// 2 x the 500ms timeout — never an unbounded hang.
	deadline := time.Now().Add(5 * time.Second)
	for cl.Failures() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("kill produced no observed failure")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("first failure took %v; in-flight requests did not fail fast", elapsed)
	}
	close(stop)
	wg.Wait()

	// Breaker open on the victim; requests re-plan around it and stay
	// complete off the surviving replicas.
	states := cl.ServerStates()
	if states[victim].State == BreakerClosed {
		t.Fatalf("victim breaker still closed: %+v", states[victim])
	}
	for round := 0; round < 5; round++ {
		items, _, err := cl.GetMulti(ks)
		if err != nil {
			t.Fatalf("post-kill GetMulti: %v", err)
		}
		if len(items) != len(ks) {
			t.Fatalf("post-kill round %d: %d/%d items (re-plan did not exclude the victim)", round, len(items), len(ks))
		}
	}
	for _, s := range cl.ServerStates() {
		if s.State != BreakerClosed && s.Addr != states[victim].Addr {
			t.Fatalf("survivor %s tripped: %+v", s.Addr, s)
		}
	}

	// No goroutine leaks: pool writers/readers/reapers and drains must
	// all exit with the client.
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, baseline)
}

// TestPooledMatchesSingleConn is the rnb-level differential check: the
// same tier read through a pooled client and a single-connection
// client must yield identical results.
func TestPooledMatchesSingleConn(t *testing.T) {
	addrs, _ := startServers(t, 4, 0)
	pooled, err := NewClient(addrs, WithReplicas(2), WithPoolSize(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pooled.Close() })
	single, err := NewClient(addrs, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })

	ks := keys(100)
	for i, k := range ks {
		if i%4 == 3 {
			continue // deliberate misses
		}
		if err := pooled.Set(&Item{Key: k, Value: []byte("val:" + k)}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		perm := rng.Perm(len(ks))
		sub := make([]string, 0, 30)
		for _, idx := range perm[:1+rng.Intn(30)] {
			sub = append(sub, ks[idx])
		}
		a, _, err := pooled.GetMulti(sub)
		if err != nil {
			t.Fatalf("pooled: %v", err)
		}
		b, _, err := single.GetMulti(sub)
		if err != nil {
			t.Fatalf("single: %v", err)
		}
		if len(a) != len(b) {
			t.Fatalf("round %d: pooled %d items, single %d", round, len(a), len(b))
		}
		for k, it := range b {
			got, ok := a[k]
			if !ok || !bytes.Equal(got.Value, it.Value) {
				t.Fatalf("round %d: %s diverges between transports", round, k)
			}
		}
	}
}
