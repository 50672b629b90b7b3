package memcache

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"rnb/internal/leakcheck"
)

// testClock is an injected clock for the write-back age bound: it moves
// only when the test advances it, so whether a queued add is young
// enough never depends on how busy the box is.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// freezeClock gives cl a clock that stands still, and returns it with
// cl's gauges, the write-back counters among them.
func freezeClock(cl *Client) (*testClock, *PoolGauges) {
	clk := &testClock{t: time.Unix(1_700_000_000, 0)}
	cl.SetClock(clk.now)
	return clk, cl.Gauges()
}

// stored reads key straight from a server's store ("" when absent).
func stored(store *Store, key string) string {
	it, err := store.Get(key)
	if err != nil {
		return ""
	}
	return string(it.Value)
}

// TestAddLaterRidesTheNextCommand: a queued add costs nothing of its
// own — no round trip on the client, nothing at the server — until a
// command to that server carries it, in front; then the server has
// executed both and the client has counted one round trip.
func TestAddLaterRidesTheNextCommand(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		srv := NewServer(NewStore(0))
		cl := dialTest(t, dial, serveTest(t, srv, nil), 5*time.Second)
		_, wb := freezeClock(cl)

		value := []byte("recovered")
		if err := cl.AddLater(&Item{Key: "wb", Value: value, Flags: 7}); err != nil {
			t.Fatal(err)
		}
		value[0] = 'X' // the queued bytes are a copy: the caller's buffer is its own again
		if got := cl.Transactions(); got != 0 {
			t.Fatalf("queuing cost %d round trips", got)
		}
		if got := srv.Stats().Transactions.Load(); got != 0 {
			t.Fatalf("the server saw %d transactions before any command was sent", got)
		}
		// The carrying command reads the very key: the add is ahead of it.
		it, err := cl.Get("wb")
		if err != nil || string(it.Value) != "recovered" || it.Flags != 7 {
			t.Fatalf("Get behind the carried add: %+v, %v", it, err)
		}
		if got := cl.Transactions(); got != 1 {
			t.Fatalf("client counted %d round trips, want 1: a carried add is not one", got)
		}
		if got := srv.Stats().Transactions.Load(); got != 2 {
			t.Fatalf("server counted %d transactions, want 2: the add is one it executed", got)
		}
		if q, c := wb.WriteBackQueued.Load(), wb.WriteBackCarried.Load(); q != 1 || c != 1 {
			t.Fatalf("queued %d carried %d, want 1 and 1", q, c)
		}
	})
}

// TestAddLaterKeepsTheConnectionInSync is the acceptance check: a
// client that carries a refused and an accepted quiet add in front of a
// command decodes that command's reply exactly as a client that carried
// nothing does — for every shape of reply, on both wires.
func TestAddLaterKeepsTheConnectionInSync(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		prime := func(store *Store) {
			for k, v := range map[string]string{"taken": "newer", "n": "41", "x": "1", "y": "2"} {
				if err := store.Set(&Item{Key: k, Value: []byte(v)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		type outcome struct {
			Items map[string]string
			Value uint64
			Err   string
		}
		render := func(items map[string]*Item, v uint64, err error) outcome {
			o := outcome{Value: v}
			if err != nil {
				o.Err = err.Error()
			}
			if items != nil {
				o.Items = map[string]string{}
				for k, it := range items {
					o.Items[k] = fmt.Sprintf("%s/%d", it.Value, it.Flags)
				}
			}
			return o
		}
		commands := []struct {
			name string
			run  func(c *Client) outcome
		}{
			{"multi-get", func(c *Client) outcome {
				items, err := c.GetMulti([]string{"x", "absent", "y", "taken"})
				return render(items, 0, err)
			}},
			{"get miss", func(c *Client) outcome { _, err := c.Get("absent"); return render(nil, 0, err) }},
			{"set", func(c *Client) outcome { return render(nil, 0, c.Set(&Item{Key: "s", Value: []byte("v")})) }},
			{"add refused", func(c *Client) outcome { return render(nil, 0, c.Add(&Item{Key: "x", Value: []byte("v")})) }},
			{"incr", func(c *Client) outcome { v, err := c.Incr("n", 1); return render(nil, v, err) }},
			{"incr non-number", func(c *Client) outcome { v, err := c.Incr("taken", 1); return render(nil, v, err) }},
			{"delete miss", func(c *Client) outcome { return render(nil, 0, c.Delete("absent")) }},
			{"touch", func(c *Client) outcome { return render(nil, 0, c.Touch("x", 60)) }},
			{"version", func(c *Client) outcome { _, err := c.Version(); return render(nil, 0, err) }},
			{"stats", func(c *Client) outcome { _, err := c.Stats(); return render(nil, 0, err) }},
		}
		for _, cmd := range commands {
			plainStore, carryStore := NewStore(0), NewStore(0)
			prime(plainStore)
			prime(carryStore)
			plain := dialTest(t, dial, serveTest(t, NewServer(plainStore), nil), 5*time.Second)
			carrying := dialTest(t, dial, serveTest(t, NewServer(carryStore), nil), 5*time.Second)
			_, wb := freezeClock(carrying)

			if err := carrying.AddLater(&Item{Key: "taken", Value: []byte("old")}); err != nil {
				t.Fatal(err)
			}
			if err := carrying.AddLater(&Item{Key: "fresh", Value: []byte("filled")}); err != nil {
				t.Fatal(err)
			}
			want, got := cmd.run(plain), cmd.run(carrying)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s behind a refused and an accepted quiet add: %+v, want %+v", cmd.name, got, want)
			}
			if wb.WriteBackCarried.Load() != 2 {
				t.Errorf("%s: carried %d adds, want 2", cmd.name, wb.WriteBackCarried.Load())
			}
			if v := stored(carryStore, "taken"); v != "newer" {
				t.Errorf("%s: the refused add replaced the stored value with %q", cmd.name, v)
			}
			if v := stored(carryStore, "fresh"); v != "filled" {
				t.Errorf("%s: the accepted add left %q", cmd.name, v)
			}
			// And the connection is still the one it was, in sync.
			if it, err := carrying.Get("fresh"); err != nil || string(it.Value) != "filled" {
				t.Errorf("%s: the command after: %+v, %v", cmd.name, it, err)
			}
			if n := carrying.Transactions(); n != 2 {
				t.Errorf("%s: %d round trips, want 2 on one connection", cmd.name, n)
			}
		}
	})
}

// TestAddLaterAgeBound: an add no command followed within
// writeBackMaxAge is never sent, one queued later still is.
func TestAddLaterAgeBound(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		store := NewStore(0)
		cl := dialTest(t, dial, serveTest(t, NewServer(store), nil), 5*time.Second)
		clk, wb := freezeClock(cl)

		cl.AddLater(&Item{Key: "stale", Value: []byte("v")})
		clk.advance(writeBackMaxAge/2 + time.Microsecond)
		cl.AddLater(&Item{Key: "young", Value: []byte("v")})
		clk.advance(writeBackMaxAge/2 + time.Microsecond)
		if _, err := cl.Get("other"); !errors.Is(err, ErrCacheMiss) {
			t.Fatal(err)
		}
		if stored(store, "stale") != "" {
			t.Fatal("an add older than the age bound reached the server")
		}
		if stored(store, "young") != "v" {
			t.Fatal("an add inside the age bound was not carried")
		}
		if a, c := wb.WriteBackDroppedAge.Load(), wb.WriteBackCarried.Load(); a != 1 || c != 1 {
			t.Fatalf("dropped_age %d carried %d, want 1 and 1", a, c)
		}
		// Exactly at the bound is still inside it.
		cl.AddLater(&Item{Key: "edge", Value: []byte("v")})
		clk.advance(writeBackMaxAge)
		cl.Get("other")
		if stored(store, "edge") != "v" {
			t.Fatal("an add exactly as old as the bound was dropped")
		}
	})
}

// TestAddLaterByteCap: adds past writeBackMaxBytes of queued bytes are
// refused on the spot and never sent; the ones that fitted all are, in
// the one write that carries them.
func TestAddLaterByteCap(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		store := NewStore(0)
		srv := NewServer(store)
		cl := dialTest(t, dial, serveTest(t, srv, nil), 5*time.Second)
		_, wb := freezeClock(cl)

		value := bytes.Repeat([]byte("v"), 1000)
		accepted := 0
		for i := 0; i < 40; i++ {
			switch err := cl.AddLater(&Item{Key: fmt.Sprintf("cap:%02d", i), Value: value}); {
			case err == nil:
				accepted++
			case !errors.Is(err, ErrNotStored):
				t.Fatal(err)
			}
		}
		if accepted < 28 || accepted > 32 {
			t.Fatalf("%d adds of ~1 KB fitted under a %d-byte cap", accepted, writeBackMaxBytes)
		}
		if full := wb.WriteBackDroppedFull.Load(); int(full) != 40-accepted {
			t.Fatalf("dropped_full %d, want %d", full, 40-accepted)
		}
		// One value too large for any queue is refused as Add refuses it.
		if err := cl.AddLater(&Item{Key: "huge", Value: make([]byte, MaxValueLen+1)}); err != ErrTooLarge {
			t.Fatalf("oversized value: %v", err)
		}
		if err := cl.AddLater(&Item{Key: "bad key", Value: value}); err != ErrBadKey {
			t.Fatalf("bad key: %v", err)
		}
		cl.Get("other")
		for i := 0; i < 40; i++ {
			if got, want := stored(store, fmt.Sprintf("cap:%02d", i)) != "", i < accepted; got != want {
				t.Fatalf("add %d stored=%v, want %v", i, got, want)
			}
		}
		if got := srv.Stats().Transactions.Load(); int(got) != accepted+1 {
			t.Fatalf("server executed %d transactions, want %d", got, accepted+1)
		}
	})
}

// byteServer is a fake server that records what each connection sent
// it. Connection i answers every write it receives with replies[i]; a
// nil reply closes the connection at once, before reading a byte.
type byteServer struct {
	addr string
	mu   sync.Mutex
	got  [][]byte
}

func newByteServer(t *testing.T, replies ...[]byte) *byteServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	bs := &byteServer{addr: ln.Addr().String(), got: make([][]byte, len(replies))}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(replies); i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if replies[i] == nil {
				conn.Close()
				continue
			}
			wg.Add(1)
			go func(i int, conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				buf := make([]byte, 64<<10)
				for {
					n, err := conn.Read(buf)
					bs.mu.Lock()
					bs.got[i] = append(bs.got[i], buf[:n]...)
					bs.mu.Unlock()
					if err != nil {
						return
					}
					conn.Write(replies[i])
				}
			}(i, conn)
		}
	}()
	return bs
}

func (bs *byteServer) received(i int) []byte {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	return append([]byte(nil), bs.got[i]...)
}

// TestAddLaterDroppedWithItsConnection: queued adds belong to the
// connection they were queued for. When it breaks under the command
// carrying them, the idempotent read is replayed on a fresh connection
// without them; when the client is closed, they are dropped with it and
// a closed client stays closed.
func TestAddLaterDroppedWithItsConnection(t *testing.T) {
	miss := []byte("END\r\n")
	add := []byte("add wb 0 0 1 noreply\r\nv\r\n")

	t.Run("broken", func(t *testing.T) {
		leakcheck.Check(t)
		// Connection 0 is closed by the server as soon as it is accepted.
		bs := newByteServer(t, nil, miss)
		cl := dialTest(t, Dial, bs.addr, 5*time.Second)
		_, wb := freezeClock(cl)
		if err := cl.AddLater(&Item{Key: "wb", Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
		// The first attempt writes add+get into a dead socket (or fails to)
		// and reads EOF; the replay is a get alone.
		if _, err := cl.Get("k"); !errors.Is(err, ErrCacheMiss) {
			t.Fatal(err)
		}
		if got := bs.received(1); !bytes.Equal(got, []byte("get k\r\n")) {
			t.Fatalf("the replayed read sent %q, want the get alone", got)
		}
		if wb.WriteBackQueued.Load() != 1 || wb.WriteBackCarried.Load()+wb.WriteBackDroppedConn.Load() != 1 {
			t.Fatalf("queued %d carried %d dropped_conn %d", wb.WriteBackQueued.Load(), wb.WriteBackCarried.Load(), wb.WriteBackDroppedConn.Load())
		}
		cl.Get("k")
		if got := bs.received(1); bytes.Contains(got, []byte("add")) {
			t.Fatalf("a later command resent the add: %q", got)
		}
	})
	t.Run("closed", func(t *testing.T) {
		leakcheck.Check(t)
		bs := newByteServer(t, miss)
		cl := dialTest(t, Dial, bs.addr, 5*time.Second)
		_, wb := freezeClock(cl)
		if err := cl.AddLater(&Item{Key: "wb", Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
		cl.Close()
		if _, err := cl.Get("k"); !errors.Is(err, errPoolClosed) {
			t.Fatalf("Get on a closed client: %v", err)
		}
		if got := bs.received(0); len(got) != 0 {
			t.Fatalf("the closed connection was sent %q", got)
		}
		if wb.WriteBackDroppedConn.Load() != 1 {
			t.Fatalf("dropped_conn %d, want 1", wb.WriteBackDroppedConn.Load())
		}
	})
	t.Run("carried bytes", func(t *testing.T) {
		leakcheck.Check(t)
		// The control: on a healthy connection the same add does ride, in
		// front, in the same write.
		bs := newByteServer(t, miss)
		cl := dialTest(t, Dial, bs.addr, 5*time.Second)
		freezeClock(cl)
		cl.AddLater(&Item{Key: "wb", Value: []byte("v")})
		if _, err := cl.Get("k"); !errors.Is(err, ErrCacheMiss) {
			t.Fatal(err)
		}
		if got, want := bs.received(0), append(append([]byte(nil), add...), "get k\r\n"...); !bytes.Equal(got, want) {
			t.Fatalf("sent %q, want %q", got, want)
		}
	})
}

// TestAddLaterCarriedByFollowers: with callers pipelined on the one
// connection, the adds one writer takes ride in front of its own
// request, and the reader ahead of it often decodes that request's
// reply. The binary decode must then skip the refused adds' AddQ error
// frames by the follower's carried count, not the reader's own: a
// mismatch is a desync, which fails the connection under every caller
// behind it.
func TestAddLaterCarriedByFollowers(t *testing.T) {
	leakcheck.Check(t)
	store := NewStore(0)
	srv := NewServer(store)
	cl := dialTest(t, DialBinary, serveTest(t, srv, nil), 5*time.Second)
	_, g := freezeClock(cl)
	const callers, rounds = 8, 200
	for c := 0; c < callers; c++ {
		store.Set(&Item{Key: fmt.Sprintf("own:%d", c), Value: bytes.Repeat([]byte{byte('a' + c)}, 10+c)})
		store.Set(&Item{Key: fmt.Sprintf("taken:%d", c), Value: []byte("kept")})
	}
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			own, taken := fmt.Sprintf("own:%d", c), fmt.Sprintf("taken:%d", c)
			for i := 0; i < rounds; i++ {
				// A refused add answers with an error frame; an accepted one
				// is silent. Both ride in front of whichever request is
				// written next, this caller's or another's.
				cl.AddLater(&Item{Key: taken, Value: []byte("stale")})
				cl.AddLater(&Item{Key: fmt.Sprintf("fresh:%d:%d", c, i), Value: []byte("v")})
				items, err := cl.GetMulti([]string{own, taken})
				if err != nil || len(items) != 2 || len(items[own].Value) != 10+c || string(items[taken].Value) != "kept" {
					t.Errorf("caller %d round %d: %d items, %v", c, i, len(items), err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if failed, replays := g.ConnsFailed.Load(), g.Replays.Load(); failed != 0 || replays != 0 {
		t.Fatalf("%d connections failed, %d reads replayed: a carried count went to the wrong request", failed, replays)
	}
	if hw := g.PipelineHighWater.Load(); hw < 2 {
		t.Fatalf("pipeline high water %d: no request was ever decoded for a follower", hw)
	}
	// Everything still queued rides one last command.
	if _, err := cl.Version(); err != nil {
		t.Fatal(err)
	}
	queued, carried := g.WriteBackQueued.Load(), g.WriteBackCarried.Load()
	if queued != 2*callers*rounds || carried != queued {
		t.Fatalf("queued %d of %d, carried %d", queued, 2*callers*rounds, carried)
	}
	if got := store.Len(); got != 2*callers+callers*rounds {
		t.Fatalf("%d items stored, want %d: an accepted add was lost", got, 2*callers+callers*rounds)
	}
}

// TestBinaryQuietAddErrorFramesAreBounded: the binary decode skips the
// error frames of the adds its request carried and not one more. To a
// request that carried nothing an AddQ frame is the desync it always
// was; so is one past the count, and an AddQ frame reporting success.
func TestBinaryQuietAddErrorFramesAreBounded(t *testing.T) {
	refused := binResFrame(binOpAddQ, binStatusNotStored, 0, 0, nil, "", "Not stored")
	noop := binResFrame(binOpNoop, binStatusOK, 1, 0, nil, "", "")
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	for _, tc := range []struct {
		name    string
		carried int
		reply   []byte
		fatal   bool
	}{
		{"one carried, one refused", 1, cat(refused, noop), false},
		{"two carried, one refused", 2, cat(refused, noop), false},
		{"two carried, none refused", 2, noop, false},
		{"none carried, one frame", 0, cat(refused, noop), true},
		{"one carried, two frames", 1, cat(refused, refused, noop), true},
		{"success answered", 1, cat(binResFrame(binOpAddQ, binStatusOK, 0, 0, nil, "", ""), noop), true},
	} {
		bs := newByteServer(t, tc.reply, nil)
		cl := dialTest(t, DialBinary, bs.addr, 2*time.Second)
		freezeClock(cl)
		for i := 0; i < tc.carried; i++ {
			cl.AddLater(&Item{Key: "wb", Value: []byte("v")})
		}
		_, err := cl.GetMulti([]string{"k"})
		if tc.fatal {
			// The desync drops the connection; the read's one replay runs
			// into the second connection's immediate close.
			if !IsConnFatal(err) {
				t.Errorf("%s: err %v, want a connection-fatal desync", tc.name, err)
			}
		} else if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestBinaryServerQuietAdd: the server's half of AddQ — success is
// silent, failure answers on the AddQ opcode, and both are transactions.
func TestBinaryServerQuietAdd(t *testing.T) {
	store := NewStore(0)
	srv := NewServer(store)
	bin := dialRaw(t, serveTest(t, srv, nil))
	var extras [8]byte
	extras[3] = 5 // flags
	bin.frame(binOpAddQ, 1, 0, extras[:], "k", []byte("first"))
	bin.frame(binOpAddQ, 2, 0, extras[:], "k", []byte("second"))
	bin.frame(binOpAddQ, 3, 0, extras[:4], "k", []byte("bad extras"))
	bin.frame(binOpNoop, 4, 0, nil, "", nil)
	if h, _, _ := bin.response(); h.opcode != binOpAddQ || h.opaque != 2 || h.status != binStatusNotStored {
		t.Fatalf("refused quiet add: opcode 0x%02x opaque %d status 0x%04x", h.opcode, h.opaque, h.status)
	}
	if h, _, _ := bin.response(); h.opcode != binOpAddQ || h.opaque != 3 || h.status != binStatusInvalidArgs {
		t.Fatalf("malformed quiet add: opcode 0x%02x opaque %d status 0x%04x", h.opcode, h.opaque, h.status)
	}
	if h, _, _ := bin.response(); h.opcode != binOpNoop || h.opaque != 4 {
		t.Fatalf("expected the noop next, got opcode 0x%02x opaque %d", h.opcode, h.opaque)
	}
	if it, err := store.Get("k"); err != nil || string(it.Value) != "first" || it.Flags != 5 {
		t.Fatalf("stored %+v, %v", it, err)
	}
	if got := srv.Stats().Transactions.Load(); got != 4 {
		t.Fatalf("%d transactions, want 4", got)
	}
	if got := srv.Stats().CmdSet.Load(); got != 3 {
		t.Fatalf("cmd_set %d, want 3", got)
	}
}

// TestPoolAddLaterIsAcknowledged: a client of several connections cannot
// order an unanswered add against its sibling connections, so its
// AddLater has stored (or been refused) by the time it returns.
func TestPoolAddLaterIsAcknowledged(t *testing.T) {
	leakcheck.Check(t)
	for _, binary := range []bool{false, true} {
		store := NewStore(0)
		p, err := NewPool(serveTest(t, NewServer(store), nil), 5*time.Second, PoolConfig{Size: 4, Binary: binary})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.AddLater(&Item{Key: "k", Value: []byte("v1")}); err != nil {
			t.Fatal(err)
		}
		if got := stored(store, "k"); got != "v1" {
			t.Fatalf("binary=%v: AddLater returned with %q stored", binary, got)
		}
		if err := p.AddLater(&Item{Key: "k", Value: []byte("v2")}); !errors.Is(err, ErrNotStored) {
			t.Fatalf("binary=%v: refused add: %v", binary, err)
		}
		if got := p.Transactions(); got != 2 {
			t.Fatalf("binary=%v: %d round trips, want 2", binary, got)
		}
	}
}

// TestAddLaterConcurrentWithRoundTrips queues adds from several
// goroutines while others run commands on the same connection: every
// add is carried or accounted for, nothing is sent twice, and replies
// keep matching their requests (-race covers the two-mutex split).
func TestAddLaterConcurrentWithRoundTrips(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		store := NewStore(0)
		cl := dialTest(t, dial, serveTest(t, NewServer(store), nil), 5*time.Second)
		_, wb := freezeClock(cl)
		if err := cl.Set(&Item{Key: "probe", Value: []byte("p")}); err != nil {
			t.Fatal(err)
		}
		const adders, perAdder = 4, 200
		var wg sync.WaitGroup
		for g := 0; g < adders; g++ {
			wg.Add(2)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perAdder; i++ {
					cl.AddLater(&Item{Key: fmt.Sprintf("c:%d:%d", g, i), Value: []byte("v")})
				}
			}(g)
			go func() {
				defer wg.Done()
				for i := 0; i < perAdder; i++ {
					if it, err := cl.Get("probe"); err != nil || string(it.Value) != "p" {
						t.Errorf("Get beside queued adds: %+v, %v", it, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if _, err := cl.Get("probe"); err != nil {
			t.Fatal(err)
		}
		queued, carried, full := wb.WriteBackQueued.Load(), wb.WriteBackCarried.Load(), wb.WriteBackDroppedFull.Load()
		if queued+full != adders*perAdder || carried != queued {
			t.Fatalf("queued %d + refused %d of %d, carried %d", queued, full, adders*perAdder, carried)
		}
		if got := store.Len() - 1; uint64(got) != carried {
			t.Fatalf("%d adds stored, %d carried", got, carried)
		}
	})
}
