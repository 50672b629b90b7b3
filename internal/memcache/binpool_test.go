package memcache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"rnb/internal/chaos"
	"rnb/internal/leakcheck"
)

// newBinPool builds a client speaking the binary protocol (quiet-get
// pipelining) against addr.
func newBinPool(t *testing.T, addr string, cfg PoolConfig) *Client {
	t.Helper()
	cfg.Binary = true
	return newTestPool(t, addr, cfg)
}

// TestBinaryPoolBasicOps drives every Conn operation once through the
// binary pooled transport — the getq/noop analogue of TestPoolBasicOps.
func TestBinaryPoolBasicOps(t *testing.T) {
	leakcheck.Check(t)
	p := newBinPool(t, poolTestServer(t, nil), PoolConfig{})
	if err := p.Set(&Item{Key: "k", Value: []byte("v"), Flags: 7}); err != nil {
		t.Fatal(err)
	}
	it, err := p.Get("k")
	if err != nil || string(it.Value) != "v" || it.Flags != 7 {
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
	if err := p.Replace(&Item{Key: "nope", Value: []byte("x")}); err != ErrNotStored {
		t.Fatalf("Replace absent: %v", err)
	}
	items, err := p.GetsMulti([]string{"k"})
	if err != nil || items["k"] == nil || items["k"].CAS == 0 {
		t.Fatalf("GetsMulti: %v %v", items, err)
	}
	stale := &Item{Key: "k", Value: []byte("v3"), CAS: items["k"].CAS + 99}
	if err := p.CompareAndSwap(stale); err != ErrCASConflict {
		t.Fatalf("stale CAS: %v", err)
	}
	fresh := &Item{Key: "k", Value: []byte("v3"), CAS: items["k"].CAS}
	if err := p.CompareAndSwap(fresh); err != nil {
		t.Fatalf("fresh CAS: %v", err)
	}
	// CAS 0 is never a token the store hands out; the binary wire would
	// read it as an unconditional set, so the client must refuse it.
	if err := p.CompareAndSwap(&Item{Key: "k", Value: []byte("x"), CAS: 0}); err != ErrCASConflict {
		t.Fatalf("zero CAS: %v", err)
	}
	if err := p.Append("k", []byte("!")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	if err := p.Prepend("k", []byte("!")); err != nil {
		t.Fatalf("Prepend: %v", err)
	}
	if it, err := p.Get("k"); err != nil || string(it.Value) != "!v3!" {
		t.Fatalf("after concat: %v %v", it, err)
	}
	if err := p.Append("ghost", []byte("!")); err != ErrNotStored {
		t.Fatalf("Append absent: %v", err)
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
	if _, err := p.Incr("absent", 1); err != ErrCacheMiss {
		t.Fatalf("Incr absent: %v", err)
	}
	if err := p.Set(&Item{Key: "nan", Value: []byte("pear")}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Incr("nan", 1); err == nil || IsConnFatal(err) {
		t.Fatalf("Incr non-numeric should answer, not kill the conn: %v", err)
	}
	if err := p.Touch("k", 60); err != nil {
		t.Fatalf("Touch: %v", err)
	}
	if err := p.Touch("absent", 60); err != ErrCacheMiss {
		t.Fatalf("Touch absent: %v", err)
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
	stats, err := p.Stats()
	if err != nil || len(stats) == 0 {
		t.Fatalf("Stats: %v %v", stats, err)
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

// TestBinaryPoolPipelines: the quiet-get transport must actually
// pipeline — concurrent multigets over one connection overlap on the
// wire instead of taking turns.
func TestBinaryPoolPipelines(t *testing.T) {
	leakcheck.Check(t)
	p := newBinPool(t, poolTestServer(t, nil), PoolConfig{Size: 1})
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
				items, err := p.GetMulti([]string{"k", "absent"})
				if err != nil {
					errs <- err
					return
				}
				if len(items) != 1 || string(items["k"].Value) != "v" {
					errs <- fmt.Errorf("demux cross-wired: %v", items)
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

// TestBinaryPoolQuietGetIsOneTransaction pins the tentpole's whole
// point: a pooled binary multiget of N keys lands on the server as ONE
// backend transaction (the getq run batches into a single GetMulti),
// not N.
func TestBinaryPoolQuietGetIsOneTransaction(t *testing.T) {
	leakcheck.Check(t)
	store := NewStore(0)
	srv := NewServer(store)
	p := newBinPool(t, serveTest(t, srv, nil), PoolConfig{Size: 1})

	ks := make([]string, 16)
	for i := range ks {
		ks[i] = fmt.Sprintf("k%02d", i)
		if err := p.Set(&Item{Key: ks[i], Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.Stats().Transactions.Load()
	items, err := p.GetMulti(ks)
	if err != nil || len(items) != len(ks) {
		t.Fatalf("GetMulti: %d items, %v", len(items), err)
	}
	if got := srv.Stats().Transactions.Load() - before; got != 1 {
		t.Fatalf("16-key binary multiget cost %d server transactions, want 1", got)
	}
}

// TestBinaryPoolIdempotentReplay mirrors TestPoolIdempotentReplay over
// the binary wire: reads replay once on a fresh conn, invisibly.
func TestBinaryPoolIdempotentReplay(t *testing.T) {
	leakcheck.Check(t)
	in := chaos.New(chaos.Profile{Seed: 1, Script: []chaos.ConnPlan{{ResetAfterWrites: 1}, {}, {}, {}}})
	p := newBinPool(t, poolTestServer(t, in), PoolConfig{Size: 2})
	if err := p.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
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
}

// TestBinaryPoolMutationsNotReplayed: binary mutations on a dying conn
// surface the error — same per-request failure semantics as text.
func TestBinaryPoolMutationsNotReplayed(t *testing.T) {
	leakcheck.Check(t)
	in := chaos.New(chaos.Profile{Seed: 1, Script: []chaos.ConnPlan{{ResetAfterWrites: 1}, {}, {}, {}}})
	p := newBinPool(t, poolTestServer(t, in), PoolConfig{Size: 2})
	if err := p.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if err := p.Set(&Item{Key: "k", Value: []byte("w")}); err == nil {
		t.Fatal("mutation on a dying connection silently replayed")
	}
	if err := p.Set(&Item{Key: "k", Value: []byte("w")}); err != nil {
		t.Fatalf("recovery after conn death: %v", err)
	}
	if p.Gauges().Replays.Load() != 0 {
		t.Fatalf("pool replayed a mutation %d times", p.Gauges().Replays.Load())
	}
}

// TestBinaryPoolBadKeyAndTooLarge: validation happens before any wire
// contact, identically to the text transports.
func TestBinaryPoolBadKeyAndTooLarge(t *testing.T) {
	leakcheck.Check(t)
	p := newBinPool(t, poolTestServer(t, nil), PoolConfig{})
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

// errBucket collapses an operation error into a category for the
// differential matrix: two transports agree iff every op lands in the
// same bucket (values compared separately). "other" covers protocol-
// answered errors (text CLIENT_ERROR / binary non-OK status) that keep
// the connection — a conn-fatal error would fail the op loop itself.
func errBucket(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrCacheMiss):
		return "miss"
	case errors.Is(err, ErrNotStored):
		return "notstored"
	case errors.Is(err, ErrCASConflict):
		return "casconflict"
	case errors.Is(err, ErrBadKey):
		return "badkey"
	case errors.Is(err, ErrTooLarge):
		return "toolarge"
	default:
		return "other"
	}
}

// transportLane is one column of the differential matrix: a transport
// speaking to its own private server/store.
type transportLane struct {
	name  string
	conn  Conn
	store *Store
}

// startLaneServer starts a fresh server and returns its address and
// backing store (for the end-of-run state comparison).
func startLaneServer(t *testing.T) (string, *Store) {
	t.Helper()
	store := NewStore(0)
	return serveTest(t, NewServer(store), nil), store
}

// newSingleConn dials a one-connection client speaking either wire
// format, closed with the test.
func newSingleConn(t *testing.T, addr string, binary bool) *Client {
	t.Helper()
	dial := Dial
	if binary {
		dial = DialBinary
	}
	cl, err := dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// addLaterThenRead is the differential matrix's write-back op: AddLater
// of (k, v), then a multi-get of k on the same handle — the command a
// one-connection client's queued add rides in front of — returning what
// that get read. Whether the add was accepted or refused (k taken), and
// whether it went unanswered (size 1: "add ... noreply" / AddQ) or
// acknowledged (larger), every lane must read the same value back and
// stay in sync for the ops that follow. A lane of several connections
// must already hold the add's outcome when AddLater returns.
func addLaterThenRead(t *testing.T, lane transportLane, k string, v []byte) (string, string) {
	t.Helper()
	before, getErr := lane.store.Get(k)
	err := lane.conn.AddLater(&Item{Key: k, Value: v})
	if lane.conn.size > 1 {
		want, taken := v, getErr == nil
		if taken {
			want = before.Value
		}
		if after, _ := lane.store.Get(k); errors.Is(err, ErrNotStored) != taken || after == nil || !bytes.Equal(after.Value, want) {
			t.Fatalf("%s: AddLater of %s returned %v (key taken: %v) with %+v stored: not acknowledged", lane.name, k, err, taken, after)
		}
	} else if err != nil {
		t.Fatalf("%s: AddLater: %v", lane.name, err)
	}
	items, err := lane.conn.GetMulti([]string{k})
	if err != nil {
		return errBucket(err), ""
	}
	return "ok", string(items[k].Value)
}

// TestTransportDifferential is the matrix oracle: one seeded op
// sequence covering the full grammar (set/add/addlater/replace/cas/
// append/prepend/incr/decr/delete/touch/get/gets multiget) replayed over every
// size × codec combination — text and binary, one connection (write-
// backs queued) and four (write-backs acknowledged) — each against its
// own server. Every op must land in the same result bucket with the
// same payload on all four, and the final store states must be
// identical (same keys, values, flags, byte counts).
func TestTransportDifferential(t *testing.T) {
	leakcheck.Check(t)
	lanes := make([]transportLane, 4)
	for i, name := range []string{"text size=1", "text size=4", "binary size=4", "binary size=1"} {
		addr, store := startLaneServer(t)
		var cl *Client
		switch i {
		case 0:
			cl = newSingleConn(t, addr, false)
		case 1:
			cl = newTestPool(t, addr, PoolConfig{Size: 4})
		case 2:
			cl = newBinPool(t, addr, PoolConfig{Size: 4})
		case 3:
			cl = newSingleConn(t, addr, true)
		}
		freezeClock(cl) // a queued add never ages out under a slow -race run
		lanes[i] = transportLane{name: name, conn: cl, store: store}
	}

	const population = 24
	key := func(i int) string { return fmt.Sprintf("dk:%02d", ((i%population)+population)%population) }
	rng := rand.New(rand.NewSource(99))
	value := func(n int) []byte {
		v := make([]byte, n)
		for i := range v {
			v[i] = byte('a' + (n+i)%26)
		}
		return v
	}
	sizes := []int{0, 1, 17, 300, 4096, 70_000}

	// apply runs one op against a lane and returns (bucket, payload).
	// The payload captures whatever the op returned beyond the error:
	// counter values, fetched items — so divergence in content, not just
	// category, fails the matrix.
	type opFunc func(c Conn) (string, string)
	laneOf := func(c Conn) transportLane {
		for _, lane := range lanes {
			if lane.conn == c {
				return lane
			}
		}
		panic("op run on a connection that is no lane's")
	}
	ops := []func() opFunc{
		func() opFunc { // set
			k, v, fl := key(rng.Intn(population)), value(sizes[rng.Intn(len(sizes))]), uint32(rng.Intn(1<<16))
			return func(c Conn) (string, string) {
				return errBucket(c.Set(&Item{Key: k, Value: v, Flags: fl})), ""
			}
		},
		func() opFunc { // add
			k, v := key(rng.Intn(population)), value(8)
			return func(c Conn) (string, string) { return errBucket(c.Add(&Item{Key: k, Value: v})), "" }
		},
		func() opFunc { // deferred add, then the command that carries it
			k, v := key(rng.Intn(population)), value(13)
			return func(c Conn) (string, string) { return addLaterThenRead(t, laneOf(c), k, v) }
		},
		func() opFunc { // replace
			k, v := key(rng.Intn(population)), value(11)
			return func(c Conn) (string, string) { return errBucket(c.Replace(&Item{Key: k, Value: v})), "" }
		},
		func() opFunc { // cas: fetch the lane's own token, maybe go stale
			k, v, stale := key(rng.Intn(population)), value(9), rng.Intn(2) == 0
			return func(c Conn) (string, string) {
				items, err := c.GetsMulti([]string{k})
				if err != nil {
					return "gets:" + errBucket(err), ""
				}
				it, ok := items[k]
				if !ok {
					return "gets:miss", ""
				}
				cas := it.CAS
				if stale {
					cas += 99
				}
				return "cas:" + errBucket(c.CompareAndSwap(&Item{Key: k, Value: v, CAS: cas})), ""
			}
		},
		func() opFunc { // append / prepend
			k, v, pre := key(rng.Intn(population)), value(5), rng.Intn(2) == 0
			return func(c Conn) (string, string) {
				if pre {
					return errBucket(c.Prepend(k, v)), ""
				}
				return errBucket(c.Append(k, v)), ""
			}
		},
		func() opFunc { // incr / decr (sometimes on non-numeric values)
			k, d, inc := key(rng.Intn(population)), uint64(rng.Intn(1000)), rng.Intn(2) == 0
			return func(c Conn) (string, string) {
				var v uint64
				var err error
				if inc {
					v, err = c.Incr(k, d)
				} else {
					v, err = c.Decr(k, d)
				}
				if err != nil {
					return errBucket(err), ""
				}
				return "ok", fmt.Sprintf("%d", v)
			}
		},
		func() opFunc { // counter seed: make some keys numeric
			k, n := key(rng.Intn(population)), rng.Intn(100000)
			return func(c Conn) (string, string) {
				return errBucket(c.Set(&Item{Key: k, Value: []byte(fmt.Sprintf("%d", n))})), ""
			}
		},
		func() opFunc { // delete
			k := key(rng.Intn(population))
			return func(c Conn) (string, string) { return errBucket(c.Delete(k)), "" }
		},
		func() opFunc { // touch
			k := key(rng.Intn(population))
			return func(c Conn) (string, string) { return errBucket(c.Touch(k, 3600)), "" }
		},
		func() opFunc { // multiget (get or gets), random subset
			start, n, gets := rng.Intn(population), 1+rng.Intn(10), rng.Intn(2) == 0
			return func(c Conn) (string, string) {
				ks := make([]string, 0, n)
				for j := 0; j < n; j++ {
					ks = append(ks, key(start+j))
				}
				var items map[string]*Item
				var err error
				if gets {
					items, err = c.GetsMulti(ks)
				} else {
					items, err = c.GetMulti(ks)
				}
				if err != nil {
					return errBucket(err), ""
				}
				// Render deterministically; CAS tokens are per-server so
				// they stay out of the payload.
				var buf bytes.Buffer
				for _, k := range ks {
					if it, ok := items[k]; ok {
						fmt.Fprintf(&buf, "%s=%d:%d;", k, len(it.Value), it.Flags)
						if len(it.Value) > 0 {
							buf.WriteByte(it.Value[0])
						}
					}
				}
				return "ok", buf.String()
			}
		},
	}

	for round := 0; round < 400; round++ {
		op := ops[rng.Intn(len(ops))]()
		bucket0, payload0 := "", ""
		for i, lane := range lanes {
			b, pl := op(lane.conn)
			if i == 0 {
				bucket0, payload0 = b, pl
				continue
			}
			if b != bucket0 {
				t.Fatalf("round %d: %s bucket %q, %s bucket %q",
					round, lanes[0].name, bucket0, lane.name, b)
			}
			if pl != payload0 {
				t.Fatalf("round %d: %s payload %q, %s payload %q",
					round, lanes[0].name, payload0, lane.name, pl)
			}
		}
	}

	// Final store-state comparison: identical item counts and byte
	// totals, and every key byte-identical across lanes.
	for _, lane := range lanes[1:] {
		if got, want := lane.store.Len(), lanes[0].store.Len(); got != want {
			t.Fatalf("store length diverged: %s=%d %s=%d", lanes[0].name, want, lane.name, got)
		}
		if got, want := lane.store.Bytes(), lanes[0].store.Bytes(); got != want {
			t.Fatalf("store bytes diverged: %s=%d %s=%d", lanes[0].name, want, lane.name, got)
		}
	}
	allKeys := make([]string, population)
	for i := range allKeys {
		allKeys[i] = key(i)
	}
	ref, err := lanes[0].conn.GetMulti(allKeys)
	if err != nil {
		t.Fatal(err)
	}
	for _, lane := range lanes[1:] {
		got, err := lane.conn.GetMulti(allKeys)
		if err != nil {
			t.Fatalf("%s: final sweep: %v", lane.name, err)
		}
		if len(got) != len(ref) {
			t.Fatalf("final state: %s has %d keys, %s has %d", lanes[0].name, len(ref), lane.name, len(got))
		}
		for k, w := range ref {
			g, ok := got[k]
			if !ok {
				t.Fatalf("final state: %s missing %s", lane.name, k)
			}
			if !bytes.Equal(g.Value, w.Value) || g.Flags != w.Flags {
				t.Fatalf("final state: %s diverges on %s (%d bytes flags %d vs %d bytes flags %d)",
					lane.name, k, len(g.Value), g.Flags, len(w.Value), w.Flags)
			}
		}
	}
}

// TestBinaryPoolDifferentialLargeValues pushes values past the bufio
// buffer through the quiet-get path of a three-connection and a
// one-connection client and cross-checks against the text client,
// including deliberate misses interleaved mid-run.
func TestBinaryPoolDifferentialLargeValues(t *testing.T) {
	leakcheck.Check(t)
	addr, _ := startLaneServer(t)
	binLanes := []transportLane{
		{name: "binary pool", conn: newBinPool(t, addr, PoolConfig{Size: 3})},
		{name: "binary single", conn: newSingleConn(t, addr, true)},
	}
	cl := newSingleConn(t, addr, false)

	rng := rand.New(rand.NewSource(43))
	sizes := []int{0, 1, 5, 128, 4096, 70_000}
	population := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("bdiff:%03d", i)
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
		for _, lane := range binLanes {
			got, err := lane.conn.GetMulti(keys)
			if err != nil {
				t.Fatalf("round %d: %s: %v", round, lane.name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d: %s returned %d items, client %d", round, lane.name, len(got), len(want))
			}
			for k, w := range want {
				g, ok := got[k]
				if !ok {
					t.Fatalf("round %d: %s missing %s", round, lane.name, k)
				}
				if !bytes.Equal(g.Value, w.Value) {
					t.Fatalf("round %d: %s: %s %d bytes, client %d bytes", round, k, lane.name, len(g.Value), len(w.Value))
				}
				if g.Flags != w.Flags {
					t.Fatalf("round %d: %s: %s flags %d vs %d", round, k, lane.name, g.Flags, w.Flags)
				}
				if g.CAS == 0 {
					t.Fatalf("round %d: %s: %s multiget lost the CAS token", round, k, lane.name)
				}
			}
		}
	}
}

// TestServerSetProtocols pins the -protocols gate: a binary-only server
// drops text connections at the sniff and vice versa, and unknown modes
// are rejected.
func TestServerSetProtocols(t *testing.T) {
	leakcheck.Check(t)
	if err := NewServer(NewStore(0)).SetProtocols("carrier-pigeon"); err == nil {
		t.Fatal("unknown protocol mode accepted")
	}
	for _, tc := range []struct {
		mode          string
		textOK, binOK bool
	}{
		{"both", true, true},
		{"text", true, false},
		{"binary", false, true},
	} {
		srv := NewServer(NewStore(0))
		if err := srv.SetProtocols(tc.mode); err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		addr := ln.Addr().String()

		textErr := func() error {
			cl, err := Dial(addr, 300*time.Millisecond)
			if err != nil {
				return err
			}
			defer cl.Close()
			return cl.Set(&Item{Key: "t", Value: []byte("v")})
		}()
		binErr := func() error {
			p, err := NewPool(addr, 300*time.Millisecond, PoolConfig{Size: 1, Binary: true})
			if err != nil {
				return err
			}
			defer p.Close()
			return p.Set(&Item{Key: "b", Value: []byte("v")})
		}()
		if (textErr == nil) != tc.textOK {
			t.Fatalf("mode %s: text err=%v, want ok=%v", tc.mode, textErr, tc.textOK)
		}
		if (binErr == nil) != tc.binOK {
			t.Fatalf("mode %s: binary err=%v, want ok=%v", tc.mode, binErr, tc.binOK)
		}
		srv.Close()
	}
}
