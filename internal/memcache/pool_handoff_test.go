package memcache

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rnb/internal/chaos"
	"rnb/internal/leakcheck"
)

// The tests here pin the machinery of a caller-driven pooled
// connection: no goroutine of its own, an empty pipe before a shared
// one, the reader role and its hand-off, and the last-writer flush.

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// poolGoStmt matches, in a dump of all stacks, a goroutine started by a
// go statement in NewPool or in a method of Client or pconn.
var poolGoStmt = regexp.MustCompile(`(?m)^created by rnb/internal/memcache\.(NewPool|\(\*Client\)\.\w+|\(\*pconn\)\.\w+) `)

// firstConn returns the client's oldest open connection.
func firstConn(t *testing.T, p *Client) *pconn {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.conns) == 0 {
		t.Fatal("pool holds no connection")
	}
	return p.conns[0]
}

// TestPoolStartsNoGoroutines: a client owns no goroutine. Counting
// goroutines would also count what earlier tests are still winding
// down, so the test reads the stacks instead: after NewPool and 100
// round trips, no live goroutine was started from the client's code.
func TestPoolStartsNoGoroutines(t *testing.T) {
	leakcheck.Check(t)
	p := newTestPool(t, poolTestServer(t, nil), PoolConfig{})
	for i := 0; i < 100; i++ {
		if _, err := p.Get("k"); err != ErrCacheMiss {
			t.Fatalf("Get: %v", err)
		}
	}
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	if got := poolGoStmt.FindAll(buf, -1); len(got) != 0 {
		t.Errorf("after 100 Gets the client's go statements running are %q", got)
	}
}

// TestPoolDialsBeforeItPipelines: two overlapping requests ride two
// connections when Size allows, and share one only when it does not.
func TestPoolDialsBeforeItPipelines(t *testing.T) {
	for _, size := range []int{2, 1} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			leakcheck.Check(t)
			// Every connection holds each request for 100ms, so the
			// second request is issued while the first is in flight.
			in := chaos.New(chaos.Profile{Seed: 1, Script: []chaos.ConnPlan{{Delay: 100 * time.Millisecond}}})
			p := newTestPool(t, poolTestServer(t, in), PoolConfig{Size: size})
			first := make(chan error, 1)
			go func() {
				_, err := p.Get("k")
				first <- err
			}()
			waitFor(t, "the first request to be in flight", func() bool { return p.Gauges().InFlight.Load() == 1 })
			if _, err := p.Get("k"); err != ErrCacheMiss {
				t.Fatalf("second Get: %v", err)
			}
			if err := <-first; err != ErrCacheMiss {
				t.Fatalf("first Get: %v", err)
			}
			g := p.Gauges()
			if open, dialed := p.ConnsOpen(), g.ConnsDialed.Load(); open != size || dialed != uint64(size) {
				t.Errorf("%d connections open, %d dialed; want %d and %d", open, dialed, size, size)
			}
			if hw := g.PipelineHighWater.Load(); size == 1 && hw < 2 {
				t.Errorf("pipeline high water %d: the two requests never shared the one connection", hw)
			}
		})
	}
}

// TestPoolHandoffUnderFailure kills a shared connection after k replies
// with 16 callers on it, so the death lands on a reader with followers
// behind it, on a follower, or on the hand-off between them. Every read
// must come back with its value (replayed once), every append must be
// applied at most once and exactly once when it reported success,
// nobody may block, and the dead connection's pipe must empty.
func TestPoolHandoffUnderFailure(t *testing.T) {
	for _, plan := range []chaos.ConnPlan{
		{ResetAfterWrites: 1}, {ResetAfterWrites: 2}, {ResetAfterWrites: 8},
		{ResetAfterWrites: 2, TruncateWrites: true},
	} {
		t.Run(fmt.Sprintf("reset=%d,truncate=%v", plan.ResetAfterWrites, plan.TruncateWrites), func(t *testing.T) {
			leakcheck.Check(t)
			plan.Delay = time.Millisecond // let the callers pile up behind one another
			script := make([]chaos.ConnPlan, 32)
			script[0] = plan
			in := chaos.New(chaos.Profile{Seed: 1, Script: script})
			srv := NewServer(NewStore(0))
			p := newTestPool(t, serveTest(t, srv, in), PoolConfig{Size: 1})
			doomed := firstConn(t, p)
			store := srv.Store()
			store.Set(&Item{Key: "k", Value: []byte("v")})
			store.Set(&Item{Key: "log", Value: []byte(";")})

			const callers, rounds = 16, 4
			var (
				wg       sync.WaitGroup
				mu       sync.Mutex
				appended []string // tokens whose Append reported success
			)
			start := make(chan struct{})
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					<-start
					for i := 0; i < rounds; i++ {
						if g%4 != 0 {
							if it, err := p.Get("k"); err != nil || string(it.Value) != "v" {
								t.Errorf("caller %d: Get = %v, %v", g, it, err)
							}
							continue
						}
						token := fmt.Sprintf("%d.%d;", g, i)
						if err := p.Append("log", []byte(token)); err == nil {
							mu.Lock()
							appended = append(appended, token)
							mu.Unlock()
						} else if !IsConnFatal(err) {
							t.Errorf("caller %d: Append: %v", g, err)
						}
					}
				}(g)
			}
			close(start)
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("a caller is still blocked 5s after the connection died")
			}
			select {
			case <-doomed.drained:
			case <-time.After(2 * time.Second):
				t.Fatal("the dead connection's pipe never emptied")
			}
			it, err := store.Get("log")
			if err != nil {
				t.Fatal(err)
			}
			log := string(it.Value)
			for g := 0; g < callers; g += 4 {
				for i := 0; i < rounds; i++ {
					if n := strings.Count(log, fmt.Sprintf(";%d.%d;", g, i)); n > 1 {
						t.Errorf("append %d.%d was applied %d times", g, i, n)
					}
				}
			}
			for _, token := range appended {
				if !strings.Contains(log, ";"+token) {
					t.Errorf("append %s reported success and is not in the log", token)
				}
			}
			if p.Gauges().Replays.Load() == 0 {
				t.Error("no read was replayed; the death never landed on a shared pipe")
			}
			if st := in.Stats(); st.Resets+st.Truncated == 0 {
				t.Error("chaos injected no fault; test proves nothing")
			}
		})
	}
}

// TestPoolFollowersGetTheirOwnReplies: with 32 callers on one
// connection most replies are decoded by the reader ahead of their
// owner. Each caller asks for keys only it uses and must get exactly
// those, with its own values, every round, on both wires.
func TestPoolFollowersGetTheirOwnReplies(t *testing.T) {
	for _, binary := range []bool{false, true} {
		t.Run(fmt.Sprintf("binary=%v", binary), func(t *testing.T) {
			leakcheck.Check(t)
			srv := NewServer(NewStore(0))
			p := newTestPool(t, serveTest(t, srv, nil), PoolConfig{Size: 1, Binary: binary})
			const callers, rounds, perCaller = 32, 200, 4
			keys := make([][]string, callers)
			for g := range keys {
				for i := 0; i < perCaller; i++ {
					k := fmt.Sprintf("own:%02d:%d", g, i)
					keys[g] = append(keys[g], k)
					// Sizes differ per caller, so a reply read for the wrong
					// owner also misframes.
					srv.Store().Set(&Item{Key: k, Value: bytes.Repeat([]byte{byte('a' + g%26)}, 10+7*g+i)})
				}
			}
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						items, err := p.GetMulti(keys[g])
						if err != nil || len(items) != perCaller {
							t.Errorf("caller %d round %d: %d items, %v", g, round, len(items), err)
							return
						}
						for i, k := range keys[g] {
							it := items[k]
							if it == nil || it.Key != k || len(it.Value) != 10+7*g+i || it.Value[0] != byte('a'+g%26) {
								t.Errorf("caller %d round %d: %s came back as %+v", g, round, k, it)
								return
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if open, hw := p.ConnsOpen(), p.Gauges().PipelineHighWater.Load(); open != 1 || hw < 2 {
				t.Errorf("%d connections, pipeline high water %d: the callers never shared a pipe", open, hw)
			}
		})
	}
}

// TestPoolSkippedFlushNeverStrands: a writer skips its flush when
// another is queued on the write mutex behind it, so that other must
// either flush or fail the connection — also when it leaves early. The
// tests stand in for "a writer is queued behind" by holding the write
// mutex or the writers count themselves; the first caller must have its
// answer well inside the I/O timeout either way.
func TestPoolSkippedFlushNeverStrands(t *testing.T) {
	const timeout = 2 * time.Second
	type result struct {
		it  *Item
		err error
	}
	setup := func(t *testing.T, in *chaos.Injector) (*Client, *pconn) {
		srv := NewServer(NewStore(0))
		srv.Store().Set(&Item{Key: "k", Value: []byte("v")})
		p, err := NewPool(serveTest(t, srv, in), timeout, PoolConfig{Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		return p, firstConn(t, p)
	}
	get := func(p *Client) chan result {
		ch := make(chan result, 1)
		go func() {
			it, err := p.Get("k")
			ch <- result{it, err}
		}()
		return ch
	}
	// expect receives a Get's result, which must be the value and must
	// arrive well before the I/O timeout could have produced it.
	expect := func(t *testing.T, who string, ch chan result) {
		t.Helper()
		select {
		case r := <-ch:
			if r.err != nil || string(r.it.Value) != "v" {
				t.Errorf("%s: Get = %v, %v", who, r.it, r.err)
			}
		case <-time.After(timeout / 4):
			t.Fatalf("%s: no answer after %v; its request was never flushed", who, timeout/4)
		}
	}
	// unflushed parks a Get in its read with its request still in the
	// write buffer, by posing as a writer queued behind it.
	unflushed := func(t *testing.T, p *Client, c *pconn) chan result {
		c.writers.Add(1)
		ch := get(p)
		waitFor(t, "the first caller to leave the write mutex", func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.head != nil && c.writers.Load() == 1
		})
		if c.w.Buffered() == 0 {
			t.Fatal("the first caller flushed although a writer was queued behind it")
		}
		return ch
	}

	t.Run("the queued writer flushes for both", func(t *testing.T) {
		leakcheck.Check(t)
		p, c := setup(t, nil)
		c.wmu.Lock()
		a, b := get(p), get(p)
		waitFor(t, "both callers to queue on the write mutex", func() bool { return c.writers.Load() == 2 })
		c.wmu.Unlock()
		expect(t, "first", a)
		expect(t, "second", b)
		if n := p.Transactions(); n != 2 {
			t.Errorf("%d transactions for two gets", n)
		}
	})

	t.Run("the queued writer finds the connection dead", func(t *testing.T) {
		leakcheck.Check(t)
		p, c := setup(t, nil)
		a := unflushed(t, p, c)
		c.wmu.Lock()
		stored := make(chan error, 1)
		go func() { stored <- p.Set(&Item{Key: "m", Value: []byte("once")}) }()
		waitFor(t, "the second caller to queue on the write mutex", func() bool { return c.writers.Load() == 2 })
		c.teardown(errors.New("test: connection failed"))
		c.wmu.Unlock()
		c.writers.Add(-1)
		expect(t, "first", a) // failed by the teardown, replayed
		// Never written, so the mutation is rerouted rather than failed.
		if err := <-stored; err != nil {
			t.Errorf("a mutation that never reached the wire failed: %v", err)
		}
		if g := p.Gauges(); g.Resubmits.Load() != 1 || g.Replays.Load() != 1 {
			t.Errorf("resubmits %d, replays %d; want 1 and 1", g.Resubmits.Load(), g.Replays.Load())
		}
	})

	t.Run("the queued writer's encode fails", func(t *testing.T) {
		leakcheck.Check(t)
		// The server looks at the first connection only every 500ms, so it
		// does not notice (and answer with a close of its own) the client's
		// write side shutting down: the big Set's encode, which outgrows
		// the write buffer, is the first to see the connection is broken.
		script := make([]chaos.ConnPlan, 8)
		script[0] = chaos.ConnPlan{Delay: 500 * time.Millisecond}
		p, c := setup(t, chaos.New(chaos.Profile{Seed: 1, Script: script}))
		a := unflushed(t, p, c)
		if err := c.conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		c.writers.Add(-1)
		err := p.Set(&Item{Key: "big", Value: make([]byte, 256<<10)})
		if !IsConnFatal(err) {
			t.Errorf("a Set whose encode hit a broken connection returned %v", err)
		}
		expect(t, "first", a)
	})
}

// TestPoolLargeWriteAfterIdle: a value larger than the write buffer
// reaches the socket from inside encode, before any flush. The write
// deadline must be armed for it — a connection idle for longer than
// the I/O timeout still carries the lapsed deadline of its last flush.
func TestPoolLargeWriteAfterIdle(t *testing.T) {
	leakcheck.Check(t)
	p, err := NewPool(poolTestServer(t, nil), 50*time.Millisecond, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Set(&Item{Key: "small", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := p.Set(&Item{Key: "big", Value: make([]byte, 200<<10)}); err != nil {
		t.Fatalf("large Set after an idle spell: %v", err)
	}
}
