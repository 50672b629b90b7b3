package memcache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rnb/internal/chaos"
	"rnb/internal/leakcheck"
)

// poolTestServer starts an in-process server (optionally behind a
// chaos injector) and returns its address.
func poolTestServer(t *testing.T, in *chaos.Injector) string {
	t.Helper()
	return serveTest(t, NewServer(NewStore(0)), in)
}

func newTestPool(t *testing.T, addr string, cfg PoolConfig) *Client {
	t.Helper()
	p, err := NewPool(addr, time.Second, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestPoolBasicOps drives every Conn operation once through the
// pipelined transport.
func TestPoolBasicOps(t *testing.T) {
	leakcheck.Check(t)
	p := newTestPool(t, poolTestServer(t, nil), PoolConfig{})
	if err := p.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	it, err := p.Get("k")
	if err != nil || string(it.Value) != "v" {
		t.Fatalf("Get: %v %v", it, err)
	}
	if _, err := p.Get("absent"); err != ErrCacheMiss {
		t.Fatalf("miss: %v", err)
	}
	if err := p.Add(&Item{Key: "k", Value: []byte("x")}); err != ErrNotStored {
		t.Fatalf("Add existing: %v", err)
	}
	if err := p.Replace(&Item{Key: "k", Value: []byte("v2")}); err != nil {
		t.Fatalf("Replace: %v", err)
	}
	items, err := p.GetsMulti([]string{"k"})
	if err != nil || items["k"] == nil || items["k"].CAS == 0 {
		t.Fatalf("GetsMulti: %v %v", items, err)
	}
	stale := &Item{Key: "k", Value: []byte("v3"), CAS: items["k"].CAS + 99}
	if err := p.CompareAndSwap(stale); err != ErrCASConflict {
		t.Fatalf("stale CAS: %v", err)
	}
	if err := p.Append("k", []byte("!")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := p.Prepend("k", []byte("!")); err != nil {
		t.Fatalf("Prepend: %v", err)
	}
	if err := p.Set(&Item{Key: "n", Value: []byte("10")}); err != nil {
		t.Fatal(err)
	}
	if v, err := p.Incr("n", 5); err != nil || v != 15 {
		t.Fatalf("Incr: %d %v", v, err)
	}
	if v, err := p.Decr("n", 20); err != nil || v != 0 {
		t.Fatalf("Decr clamp: %d %v", v, err)
	}
	if err := p.Touch("k", 60); err != nil {
		t.Fatalf("Touch: %v", err)
	}
	if err := p.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := p.Delete("k"); err != ErrCacheMiss {
		t.Fatalf("Delete absent: %v", err)
	}
	if err := p.SetPinned(&Item{Key: "pin", Value: []byte("p")}); err != nil {
		t.Fatalf("SetPinned: %v", err)
	}
	if _, err := p.Version(); err != nil {
		t.Fatalf("Version: %v", err)
	}
	if _, err := p.Stats(); err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if _, err := p.Get("pin"); err != ErrCacheMiss {
		t.Fatalf("post-flush: %v", err)
	}
	if p.Transactions() == 0 {
		t.Fatal("no transactions counted")
	}
}

// TestPoolPipelines proves requests actually share connections: with a
// single-connection pool, many concurrent getters must all complete,
// and the observed pipeline depth must exceed one (they overlapped on
// the wire instead of taking turns).
func TestPoolPipelines(t *testing.T) {
	leakcheck.Check(t)
	p := newTestPool(t, poolTestServer(t, nil), PoolConfig{Size: 1})
	if err := p.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	const G = 32
	var wg sync.WaitGroup
	errs := make(chan error, G)
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := p.Get("k"); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if p.ConnsOpen() != 1 {
		t.Fatalf("pool grew beyond Size=1: %d conns", p.ConnsOpen())
	}
	if hw := p.Gauges().PipelineHighWater.Load(); hw < 2 {
		t.Fatalf("pipeline high water %d; requests never overlapped", hw)
	}
}

// TestPoolGrowsUnderLoad: a request goes to an empty pipe before it
// shares one, so concurrent callers that find every open connection busy
// force dial-on-demand up to Size.
func TestPoolGrowsUnderLoad(t *testing.T) {
	leakcheck.Check(t)
	p := newTestPool(t, poolTestServer(t, nil), PoolConfig{Size: 4})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				p.Set(&Item{Key: fmt.Sprintf("k%d", g), Value: []byte("v")})
			}
		}(g)
	}
	wg.Wait()
	if dialed := p.Gauges().ConnsDialed.Load(); dialed < 2 {
		t.Fatalf("pool never grew: %d dials", dialed)
	}
	if open := p.ConnsOpen(); open > 4 {
		t.Fatalf("pool exceeded Size: %d conns", open)
	}
}

// TestPoolIdempotentReplay: a connection that dies mid-use must be
// invisible to read callers — the request replays once on a fresh
// connection.
func TestPoolIdempotentReplay(t *testing.T) {
	leakcheck.Check(t)
	// First accepted conn serves one op then resets; later conns are
	// clean.
	in := chaos.New(chaos.Profile{Seed: 1, Script: []chaos.ConnPlan{{ResetAfterWrites: 1}, {}, {}, {}}})
	p := newTestPool(t, poolTestServer(t, in), PoolConfig{Size: 2})
	if err := p.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err) // op #1 on the doomed conn: served, then it dies
	}
	it, err := p.Get("k")
	if err != nil {
		t.Fatalf("read not replayed over a fresh connection: %v", err)
	}
	if string(it.Value) != "v" {
		t.Fatalf("replayed read returned %q", it.Value)
	}
	if p.Gauges().Replays.Load() == 0 {
		t.Fatal("replay gauge not bumped; conn death was never exercised")
	}
	if in.Stats().Resets == 0 {
		t.Fatal("chaos injected no resets; test proves nothing")
	}
}

// TestPoolMutationsNotReplayed: a mutation whose connection dies after
// the bytes went out must surface the error, never silently replay.
func TestPoolMutationsNotReplayed(t *testing.T) {
	leakcheck.Check(t)
	in := chaos.New(chaos.Profile{Seed: 1, Script: []chaos.ConnPlan{{ResetAfterWrites: 1}, {}, {}, {}}})
	p := newTestPool(t, poolTestServer(t, in), PoolConfig{Size: 2})
	if err := p.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if err := p.Set(&Item{Key: "k", Value: []byte("w")}); err == nil {
		t.Fatal("mutation on a dying connection silently replayed")
	}
	// The pool recovers on the next call via a fresh connection.
	if err := p.Set(&Item{Key: "k", Value: []byte("w")}); err != nil {
		t.Fatalf("recovery after conn death: %v", err)
	}
	if p.Gauges().Replays.Load() != 0 {
		t.Fatalf("pool replayed a mutation %d times", p.Gauges().Replays.Load())
	}
}

// TestPoolKillFailsFast: once the server is killed, in-flight requests
// fail, and subsequent requests fail on the dial instead of hanging.
func TestPoolKillFailsFast(t *testing.T) {
	leakcheck.Check(t)
	in := chaos.New(chaos.Profile{Seed: 1})
	p := newTestPool(t, poolTestServer(t, in), PoolConfig{})
	if err := p.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	in.Kill()
	start := time.Now()
	if _, err := p.Get("k"); err == nil {
		t.Fatal("request against a killed server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("killed-server failure took %v; not fail-fast", elapsed)
	}
	// Revival: dial-on-demand reconnects.
	in.Revive()
	if err := p.Set(&Item{Key: "k", Value: []byte("v2")}); err != nil {
		t.Fatalf("post-revive op: %v", err)
	}
}

// TestPoolCloseIdempotentAndFailsPending: Close is safe to call twice
// and new requests after Close fail immediately.
func TestPoolCloseIdempotentAndFailsPending(t *testing.T) {
	leakcheck.Check(t)
	p := newTestPool(t, poolTestServer(t, nil), PoolConfig{})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := p.Get("k"); err != errPoolClosed {
		t.Fatalf("post-Close Get: %v", err)
	}
	if open := p.Gauges().ConnsOpen.Load(); open != 0 {
		t.Fatalf("%d conns leaked past Close", open)
	}
}

// TestPoolDifferentialAgainstClient is the differential oracle: a
// client of three pipelined connections must be byte-for-byte
// indistinguishable from a one-connection client across randomized key
// sets, value sizes (including empty and >64KiB — past the bufio
// buffer), and miss patterns.
func TestPoolDifferentialAgainstClient(t *testing.T) {
	leakcheck.Check(t)
	addr := poolTestServer(t, nil)
	pool := newTestPool(t, addr, PoolConfig{Size: 3})
	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	rng := rand.New(rand.NewSource(42))
	sizes := []int{0, 1, 5, 128, 4096, 70_000} // 70_000 > the 64KiB bufio size
	population := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("diff:%03d", i)
		population = append(population, key)
		if i%3 == 2 {
			continue // every third key is a deliberate miss
		}
		size := sizes[rng.Intn(len(sizes))]
		val := make([]byte, size)
		for j := range val {
			val[j] = byte('a' + (i+j)%26)
		}
		if err := cl.Set(&Item{Key: key, Value: val, Flags: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}

	for round := 0; round < 40; round++ {
		// Random subset, random order, no duplicates.
		perm := rng.Perm(len(population))
		n := 1 + rng.Intn(20)
		keys := make([]string, 0, n)
		for _, idx := range perm[:n] {
			keys = append(keys, population[idx])
		}
		want, err := cl.GetMulti(keys)
		if err != nil {
			t.Fatalf("round %d: client: %v", round, err)
		}
		got, err := pool.GetMulti(keys)
		if err != nil {
			t.Fatalf("round %d: pool: %v", round, err)
		}
		if len(got) != len(want) {
			t.Fatalf("round %d: pool returned %d items, client %d", round, len(got), len(want))
		}
		for k, w := range want {
			g, ok := got[k]
			if !ok {
				t.Fatalf("round %d: pool missing %s", round, k)
			}
			if !bytes.Equal(g.Value, w.Value) {
				t.Fatalf("round %d: %s: pool %d bytes, client %d bytes", round, k, len(g.Value), len(w.Value))
			}
			if g.Flags != w.Flags {
				t.Fatalf("round %d: %s: flags %d vs %d", round, k, g.Flags, w.Flags)
			}
		}
	}
}

// TestPoolDifferentialConcurrent repeats the oracle under concurrency:
// pipelined responses must demux onto the right requests even when
// many multi-gets share a connection.
func TestPoolDifferentialConcurrent(t *testing.T) {
	leakcheck.Check(t)
	addr := poolTestServer(t, nil)
	pool := newTestPool(t, addr, PoolConfig{Size: 2})
	cl, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	const N = 40
	for i := 0; i < N; i++ {
		val := bytes.Repeat([]byte{byte('A' + i%26)}, 100+i*37)
		if err := cl.Set(&Item{Key: fmt.Sprintf("c:%02d", i), Value: val}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; round < 30; round++ {
				perm := rng.Perm(N)
				keys := make([]string, 0, 8)
				for _, idx := range perm[:1+rng.Intn(8)] {
					keys = append(keys, fmt.Sprintf("c:%02d", idx))
				}
				items, err := pool.GetMulti(keys)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d round %d: %w", g, round, err)
					return
				}
				for _, k := range keys {
					it, ok := items[k]
					if !ok {
						errs <- fmt.Errorf("goroutine %d: %s missing", g, k)
						return
					}
					var idx int
					fmt.Sscanf(k, "c:%02d", &idx)
					if len(it.Value) != 100+idx*37 || (len(it.Value) > 0 && it.Value[0] != byte('A'+idx%26)) {
						errs <- fmt.Errorf("goroutine %d: %s got cross-wired value (%d bytes)", g, k, len(it.Value))
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
}

// TestPoolBadKeyAndTooLarge: input validation happens before any wire
// contact.
func TestPoolBadKeyAndTooLarge(t *testing.T) {
	leakcheck.Check(t)
	p := newTestPool(t, poolTestServer(t, nil), PoolConfig{})
	if _, err := p.GetMulti([]string{"has space"}); err != ErrBadKey {
		t.Fatalf("bad key: %v", err)
	}
	if err := p.Set(&Item{Key: "k", Value: make([]byte, MaxValueLen+1)}); err != ErrTooLarge {
		t.Fatalf("too large: %v", err)
	}
	if before := p.Transactions(); before != 0 {
		t.Fatalf("invalid requests reached the wire: %d transactions", before)
	}
}
