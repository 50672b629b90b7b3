package rnb

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"rnb/internal/chaos"
	"rnb/internal/memcache"
)

// TestBinaryPooledClientStress is TestPooledClientStress over the
// binary wire: 64 goroutines hammering one binary-pooled client with
// mixed multi-gets, sets, and deletes. Under -race it is the data-race
// proof for the quiet-get transport end to end; values are a pure
// function of the key, so demux cross-wiring surfaces as a corrupt
// read regardless of interleaving. The goroutine baseline check
// doubles as the leak proof for the binary pool's writer/reader loops.
func TestBinaryPooledClientStress(t *testing.T) {
	addrs, _ := startServers(t, 4, 0)
	baseline := runtime.NumGoroutine()
	cl, err := NewClient(addrs, WithReplicas(3), WithPoolSize(4), WithBinaryProtocol())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	const (
		G     = 64
		iters = 60
		space = 200
	)
	key := func(i int) string { return fmt.Sprintf("bstress:%04d", i%space) }
	val := func(k string) []byte { return []byte("v:" + k) }
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
		t.Fatal("binary pooled client has no gauges")
	}
	if g.PipelineHighWater.Load() < 2 {
		t.Fatalf("pipeline high water %d: stress never pipelined", g.PipelineHighWater.Load())
	}
	if q, inf := g.Queued.Load(), g.InFlight.Load(); q != 0 || inf != 0 {
		t.Fatalf("gauges not drained after quiesce: queued=%d in_flight=%d", q, inf)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, baseline)
}

// TestBinaryPooledClientChaosKillMidPipeline is the kill-mid-pipeline
// chaos drill over the binary wire: a backend dies while quiet-get
// batches are in flight. In-flight requests must fail fast, the
// breaker must open, re-plans must keep reads complete off the
// survivors, and teardown must leak no pool goroutines — identical
// failure semantics to the text transport.
func TestBinaryPooledClientChaosKillMidPipeline(t *testing.T) {
	addrs, _, injectors := startChaosServers(t, 3,
		map[int]chaos.Profile{0: {Seed: 1}, 1: {Seed: 1}, 2: {Seed: 1}})
	baseline := runtime.NumGoroutine()
	cl, err := NewClient(addrs,
		WithReplicas(2), WithPoolSize(4), WithBinaryProtocol(),
		WithFailureCooldown(time.Minute), // stays open for the whole test
		WithRetry(2, time.Millisecond),
		WithTimeout(500*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ks := keys(60)
	seedKeys(t, cl, ks)

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

	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, baseline)
}

// TestBinaryMatchesTextTransports is the rnb-level three-way
// differential: the same tier read through a text single-connection
// client, a text pooled client, and a binary pooled client must yield
// identical results for identical seeded multi-gets.
func TestBinaryMatchesTextTransports(t *testing.T) {
	addrs, _ := startServers(t, 4, 0)
	single, err := NewClient(addrs, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { single.Close() })
	pooled, err := NewClient(addrs, WithReplicas(2), WithPoolSize(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pooled.Close() })
	binary, err := NewClient(addrs, WithReplicas(2), WithPoolSize(4), WithBinaryProtocol())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { binary.Close() })

	ks := keys(100)
	for i, k := range ks {
		if i%4 == 3 {
			continue // deliberate misses
		}
		if err := binary.Set(&Item{Key: k, Value: []byte("val:" + k)}); err != nil {
			t.Fatal(err)
		}
	}
	clients := map[string]*Client{"single": single, "pooled": pooled, "binary": binary}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		perm := rng.Perm(len(ks))
		sub := make([]string, 0, 30)
		for _, idx := range perm[:1+rng.Intn(30)] {
			sub = append(sub, ks[idx])
		}
		ref, _, err := single.GetMulti(sub)
		if err != nil {
			t.Fatalf("single: %v", err)
		}
		for name, cl := range clients {
			got, _, err := cl.GetMulti(sub)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(ref) {
				t.Fatalf("round %d: %s %d items, single %d", round, name, len(got), len(ref))
			}
			for k, it := range ref {
				g, ok := got[k]
				if !ok || !bytes.Equal(g.Value, it.Value) {
					t.Fatalf("round %d: %s diverges from single on %s", round, name, k)
				}
			}
		}
	}
}

// TestWithBinaryProtocolImpliesPool: the option picks the wire and
// nothing else. Without WithPoolSize each server gets one binary
// connection, as it would get one text connection: concurrent callers
// pipeline on it, and round 2's write-backs queue for the next command
// instead of costing an acknowledged add.
func TestWithBinaryProtocolImpliesPool(t *testing.T) {
	addrs := make([]string, 2)
	for i := range addrs {
		srv := memcache.NewServer(memcache.NewStore(0))
		if err := srv.SetProtocols("binary"); err != nil { // a text connection is dropped at the sniff
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
	}
	cl, err := NewClient(addrs, WithReplicas(2), WithBinaryProtocol())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.Set(&Item{Key: "bk", Value: []byte("bv")}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if items, _, err := cl.GetMulti([]string{"bk"}); err != nil || string(items["bk"].Value) != "bv" {
					t.Errorf("binary round trip: %v %v", items, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	g := cl.PoolGauges()
	if dialed := g.ConnsDialed.Load(); dialed != uint64(len(addrs)) {
		t.Fatalf("%d connections dialed to %d servers under concurrent reads, want one each", dialed, len(addrs))
	}
	if err := cl.cur.Load().slots[0].conn.AddLater(&Item{Key: "wb", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if q := g.WriteBackQueued.Load(); q != 1 {
		t.Fatalf("write-backs queued %d, want 1: the binary client acknowledged its add", q)
	}
}
