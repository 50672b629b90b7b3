package memcache

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"rnb/internal/chaos"
	"rnb/internal/leakcheck"
	"rnb/internal/obs"
)

// The tests here pin the split exchange: SendGet writes a multi-get and
// returns, Pending.Collect reads it, and whoever collects first on a
// connection reads it for every request ahead of its own.

// TestPoolCrossedCollects: two callers each send to two servers, in
// opposite orders, before collecting either reply — one in the order it
// sent, the other in reverse. Nothing may wait on a reply nobody reads:
// the run finishes with no I/O deadline at all, on both wires and sizes,
// also when every request and every reply is larger than the socket
// buffers, so a server cannot take the next request while a reply to
// the last one is unread.
func TestPoolCrossedCollects(t *testing.T) {
	for _, tc := range []struct {
		name                       string
		values, valueSize, padding int // padding: missing keys that fatten each request
		rounds                     int
	}{
		{"small", 4, 16, 0, 200},
		{"large", 64, 100 << 10, 48 << 10, 2},
	} {
		for _, binary := range []bool{false, true} {
			for _, size := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/binary=%v/size=%d", tc.name, binary, size), func(t *testing.T) {
					leakcheck.Check(t)
					var keys []string
					for i := 0; i < tc.values; i++ {
						keys = append(keys, fmt.Sprintf("v:%d", i))
					}
					for i := 0; i < tc.padding; i++ {
						keys = append(keys, fmt.Sprintf("pad:%0120d", i))
					}
					var servers [2]*Client
					for i := range servers {
						srv := NewServer(NewStore(0))
						for _, k := range keys[:tc.values] {
							srv.Store().Set(&Item{Key: k, Value: make([]byte, tc.valueSize)})
						}
						p, err := NewPool(serveTest(t, srv, nil), 0, PoolConfig{Size: size, Binary: binary})
						if err != nil {
							t.Fatal(err)
						}
						t.Cleanup(func() { p.Close() })
						servers[i] = p
					}
					start := make(chan struct{})
					var wg sync.WaitGroup
					for caller := 0; caller < 2; caller++ {
						wg.Add(1)
						go func(caller int) {
							defer wg.Done()
							<-start
							first, second := servers[caller], servers[1-caller]
							for r := 0; r < tc.rounds; r++ {
								var h [2]Pending
								first.SendGet(obs.TraceContext{}, keys, nil, &h[0])
								second.SendGet(obs.TraceContext{}, keys, nil, &h[1])
								for j := range h {
									i := j
									if caller == 1 {
										i = 1 - j
									}
									if items, _, _, err := h[i].Collect(); err != nil || len(items) != tc.values {
										t.Errorf("caller %d round %d: %d items, %v", caller, r, len(items), err)
										return
									}
								}
							}
						}(caller)
					}
					close(start)
					done := make(chan struct{})
					go func() { wg.Wait(); close(done) }()
					select {
					case <-done:
					case <-time.After(20 * time.Second):
						t.Fatal("the crossed callers are still waiting after 20s")
					}
				})
			}
		}
	}
}

// gatedBackend holds a multi-get whose first key has a gate until the
// gate is closed.
type gatedBackend struct {
	Backend
	gates map[string]chan struct{}
}

func (g gatedBackend) GetMulti(keys []string) (map[string]*Item, error) {
	if gate := g.gates[keys[0]]; gate != nil {
		<-gate
	}
	return g.Backend.GetMulti(keys)
}

// openGate closes gate unless it is closed already.
func openGate(gate chan struct{}) {
	select {
	case <-gate:
	default:
		close(gate)
	}
}

// locked returns cond evaluated under c.mu.
func locked(c *pconn, cond func() bool) func() bool {
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return cond()
	}
}

// TestPoolWriteBehindReader: a request larger than the socket buffers is
// written behind a reader at work, with a request between the reader's
// own and it whose owner is busy elsewhere and whose reply is larger
// than the buffers too. The server reads no more of the big request
// until that reply is read, so the reader must stay until the write is
// done. Gates in the backend fix the order: the reader's own reply
// comes once the big request is being written, the busy owner's once
// the reader has its own.
func TestPoolWriteBehindReader(t *testing.T) {
	for _, binary := range []bool{false, true} {
		t.Run(fmt.Sprintf("binary=%v", binary), func(t *testing.T) {
			leakcheck.Check(t)
			store := NewStore(0)
			var big, huge []string
			for i := 0; i < 64; i++ {
				big = append(big, fmt.Sprintf("big:%d", i))
				store.Set(&Item{Key: big[i], Value: make([]byte, 100<<10)})
			}
			for i := 0; i < 48<<10; i++ {
				huge = append(huge, fmt.Sprintf("pad:%0120d", i))
			}
			own, busy := make(chan struct{}), make(chan struct{})
			srv := NewServerBackend(gatedBackend{storeBackend{store}, map[string]chan struct{}{"own": own, big[0]: busy}})
			addr := serveTest(t, srv, nil)
			t.Cleanup(func() { openGate(own); openGate(busy) }) // before the server's Close
			p, err := NewPool(addr, 0, PoolConfig{Size: 1, Binary: binary})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			c := firstConn(t, p)

			var r, b, w Pending
			p.SendGet(obs.TraceContext{}, []string{"own"}, nil, &r)
			rdone := make(chan error, 1)
			go func() { _, _, _, err := r.Collect(); rdone <- err }()
			waitFor(t, "the reader to take the role", locked(c, func() bool { return c.reading }))
			p.SendGet(obs.TraceContext{}, big, nil, &b) // the busy owner's, written behind the reader
			wdone := make(chan error, 1)
			go func() {
				p.SendGet(obs.TraceContext{}, huge, nil, &w)
				_, _, _, err := w.Collect()
				wdone <- err
			}()
			waitFor(t, "the big request to be written behind the reader", locked(c, func() bool { return c.writing == 1 }))
			openGate(own)
			waitFor(t, "the reader's own reply", locked(c, func() bool { return r.s.done || len(rdone) > 0 }))
			openGate(busy)
			select {
			case err := <-wdone:
				if err != nil {
					t.Fatalf("big request: %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the big request is still being written 10s on: the reader left it behind a reply nobody read")
			}
			if err := <-rdone; err != nil {
				t.Errorf("reader: %v", err)
			}
			if items, _, _, err := b.Collect(); err != nil || len(items) != len(big) {
				t.Errorf("busy owner: %d items, %v", len(items), err)
			}
		})
	}
}

// TestPoolCollectorReadsForOthers: two requests wait for replies with
// nobody reading; the second to be sent collects first, and decodes the
// first one's reply into its slot on the way — its owner has not started
// collecting — and that owner then finds its answer without reading.
// Gates in the backend fix the order: a reader at work while both are
// sent, gone before the first reply is on its way.
func TestPoolCollectorReadsForOthers(t *testing.T) {
	for _, binary := range []bool{false, true} {
		t.Run(fmt.Sprintf("binary=%v", binary), func(t *testing.T) {
			leakcheck.Check(t)
			store := NewStore(0)
			for k, v := range map[string]string{"r": "reader", "a": "first", "b": "second"} {
				store.Set(&Item{Key: k, Value: []byte(v)})
			}
			rGate, aGate := make(chan struct{}), make(chan struct{})
			srv := NewServerBackend(gatedBackend{storeBackend{store}, map[string]chan struct{}{"r": rGate, "a": aGate}})
			addr := serveTest(t, srv, nil)
			t.Cleanup(func() { openGate(rGate); openGate(aGate) })
			p := newTestPool(t, addr, PoolConfig{Size: 1, Binary: binary})
			c := firstConn(t, p)
			var r, a, b Pending
			p.SendGet(obs.TraceContext{}, []string{"r"}, nil, &r)
			rdone := make(chan error, 1)
			go func() { _, _, _, err := r.Collect(); rdone <- err }()
			waitFor(t, "the reader to take the role", locked(c, func() bool { return c.reading }))
			p.SendGet(obs.TraceContext{}, []string{"a"}, nil, &a)
			p.SendGet(obs.TraceContext{}, []string{"b"}, nil, &b)
			openGate(rGate)
			if err := <-rdone; err != nil {
				t.Fatal(err)
			}
			if locked(c, func() bool { return c.reading || a.s.done })() {
				t.Fatal("the reader read on past its own reply, which nothing asked it to")
			}
			openGate(aGate)
			if items, _, _, err := b.Collect(); err != nil || len(items) != 1 || string(items[0].Value) != "second" {
				t.Fatalf("second collect: %+v, %v", items, err)
			}
			if !locked(c, func() bool { return a.s.done })() {
				t.Error("the first request's reply was not read by the collect behind it")
			}
			if items, _, _, err := a.Collect(); err != nil || len(items) != 1 || string(items[0].Value) != "first" {
				t.Fatalf("first collect: %+v, %v", items, err)
			}
			if n := p.Transactions(); n != 3 {
				t.Errorf("%d transactions for three gets", n)
			}
		})
	}
}

// TestPoolKilledBetweenSendAndCollect: the connection dies after a
// multi-get is sent and before it is collected, and an append follows
// on the same client. The read is replayed once and returns its value;
// the append is applied at most once, and exactly once when it reported
// success.
func TestPoolKilledBetweenSendAndCollect(t *testing.T) {
	for _, binary := range []bool{false, true} {
		for _, size := range []int{1, 2} {
			t.Run(fmt.Sprintf("binary=%v/size=%d", binary, size), func(t *testing.T) {
				leakcheck.Check(t)
				// The first connection answers one request, then resets
				// instead of sending the next reply; the rest are sound.
				script := make([]chaos.ConnPlan, 8)
				script[0] = chaos.ConnPlan{ResetAfterWrites: 1}
				in := chaos.New(chaos.Profile{Seed: 1, Script: script})
				srv := NewServer(NewStore(0))
				srv.Store().Set(&Item{Key: "k", Value: []byte("v")})
				srv.Store().Set(&Item{Key: "log", Value: []byte(";")})
				p := newTestPool(t, serveTest(t, srv, in), PoolConfig{Size: size, Binary: binary})
				if _, err := p.Version(); err != nil {
					t.Fatal(err)
				}
				var h Pending
				p.SendGet(obs.TraceContext{}, []string{"k"}, nil, &h)
				waitFor(t, "the connection to reset", func() bool { return in.Stats().Resets == 1 })
				appendErr := p.Append("log", []byte("a;"))
				if items, _, _, err := h.Collect(); err != nil || len(items) != 1 || string(items[0].Value) != "v" {
					t.Fatalf("collect after the reset: %+v, %v", items, err)
				}
				if r := p.Gauges().Replays.Load(); r != 1 {
					t.Errorf("%d replays; want the read replayed once", r)
				}
				it, err := srv.Store().Get("log")
				if err != nil {
					t.Fatal(err)
				}
				if n := strings.Count(string(it.Value), "a;"); n > 1 || appendErr == nil && n != 1 {
					t.Errorf("append returned %v and was applied %d times", appendErr, n)
				}
			})
		}
	}
}

// TestPoolCloseWithUncollected: Close returns promptly while a request
// is sent and not collected — here to a server that never answers, with
// no I/O deadline — and the collect then fails.
func TestPoolCloseWithUncollected(t *testing.T) {
	for _, binary := range []bool{false, true} {
		t.Run(fmt.Sprintf("binary=%v", binary), func(t *testing.T) {
			leakcheck.Check(t)
			in := chaos.New(chaos.Profile{Seed: 1, Script: []chaos.ConnPlan{{Blackhole: true}}})
			p, err := NewPool(poolTestServer(t, in), 0, PoolConfig{Size: 1, Binary: binary})
			if err != nil {
				t.Fatal(err)
			}
			var h Pending
			p.SendGet(obs.TraceContext{}, []string{"k"}, nil, &h)
			closed := make(chan struct{})
			go func() { p.Close(); close(closed) }()
			select {
			case <-closed:
			case <-time.After(2 * time.Second):
				t.Fatal("Close is still waiting on a request sent and not collected")
			}
			if _, _, _, err := h.Collect(); !IsConnFatal(err) {
				t.Errorf("collect after Close: %v", err)
			}
		})
	}
}
