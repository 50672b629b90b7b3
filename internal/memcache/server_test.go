package memcache

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"maps"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rnb/internal/chaos"
	"rnb/internal/obs"
)

// serveTest is the one way tests start a server: on a fresh loopback
// listener (behind in, when given), closed with the test. It returns the
// listener's own address, which is known before the Serve goroutine has
// run — srv.Addr() is not, and "dial tcp: missing address" was the flake
// that taught it.
func serveTest(t testing.TB, srv *Server, in *chaos.Injector) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := net.Listener(ln)
	if in != nil {
		wrapped = in.Wrap(ln)
	}
	go srv.Serve(wrapped)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// dialTest connects a client (Dial or DialBinary) closed with the test.
func dialTest(t *testing.T, dial dialFunc, addr string, timeout time.Duration) *Client {
	t.Helper()
	cl, err := dial(addr, timeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// startServer spins up a server on a random loopback port and returns
// it with a connected text client.
func startServer(t *testing.T, capacity int64) (*Server, *Client) {
	t.Helper()
	srv := NewServer(NewStore(capacity))
	return srv, dialTest(t, Dial, serveTest(t, srv, nil), 5*time.Second)
}

func TestEndToEndSetGet(t *testing.T) {
	_, cl := startServer(t, 0)
	if err := cl.Set(&Item{Key: "hello", Value: []byte("world"), Flags: 42}); err != nil {
		t.Fatal(err)
	}
	it, err := cl.Get("hello")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "world" || it.Flags != 42 {
		t.Fatalf("round trip: %+v", it)
	}
	if _, err := cl.Get("missing"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("miss: %v", err)
	}
}

func TestEndToEndMultiGetIsOneTransaction(t *testing.T) {
	srv, cl := startServer(t, 0)
	keys := make([]string, 50)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
		if err := cl.Set(&Item{Key: keys[i], Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	before := srv.Stats().Transactions.Load()
	items, err := cl.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 50 {
		t.Fatalf("got %d items", len(items))
	}
	if got := srv.Stats().Transactions.Load() - before; got != 1 {
		t.Fatalf("multi-get cost %d server transactions, want 1", got)
	}
}

func TestEndToEndMultiGetPartialHits(t *testing.T) {
	_, cl := startServer(t, 0)
	_ = cl.Set(&Item{Key: "a", Value: []byte("1")})
	_ = cl.Set(&Item{Key: "c", Value: []byte("3")})
	items, err := cl.GetMulti([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 || items["b"] != nil {
		t.Fatalf("partial hits: %v", items)
	}
}

func TestEndToEndEmptyAndBinaryValues(t *testing.T) {
	_, cl := startServer(t, 0)
	vals := [][]byte{{}, {0, 1, 2, 255}, []byte("line\r\nbreak"), []byte(strings.Repeat("x", 10000))}
	for i, v := range vals {
		key := fmt.Sprintf("bin%d", i)
		if err := cl.Set(&Item{Key: key, Value: v}); err != nil {
			t.Fatal(err)
		}
		it, err := cl.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		if string(it.Value) != string(v) {
			t.Fatalf("value %d corrupted: %q != %q", i, it.Value, v)
		}
	}
}

func TestEndToEndAddReplaceDelete(t *testing.T) {
	_, cl := startServer(t, 0)
	if err := cl.Add(&Item{Key: "k", Value: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Add(&Item{Key: "k", Value: []byte("2")}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("second add: %v", err)
	}
	if err := cl.Replace(&Item{Key: "k", Value: []byte("3")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("second delete: %v", err)
	}
	if err := cl.Replace(&Item{Key: "k", Value: []byte("4")}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("replace after delete: %v", err)
	}
}

func TestEndToEndCAS(t *testing.T) {
	_, cl := startServer(t, 0)
	_ = cl.Set(&Item{Key: "k", Value: []byte("a")})
	items, err := cl.GetsMulti([]string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	it := items["k"]
	if it == nil || it.CAS == 0 {
		t.Fatalf("gets did not return CAS: %+v", it)
	}
	it.Value = []byte("b")
	if err := cl.CompareAndSwap(it); err != nil {
		t.Fatal(err)
	}
	// The token is now stale.
	it.Value = []byte("c")
	if err := cl.CompareAndSwap(it); !errors.Is(err, ErrCASConflict) {
		t.Fatalf("stale cas: %v", err)
	}
	it.Key = "missing"
	if err := cl.CompareAndSwap(it); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("cas missing: %v", err)
	}
}

func TestEndToEndFlushAllAndVersion(t *testing.T) {
	_, cl := startServer(t, 0)
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
	if err := cl.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatal("flush_all did not flush")
	}
	v, err := cl.Version()
	if err != nil || v == "" {
		t.Fatalf("version: %q, %v", v, err)
	}
}

func TestEndToEndStats(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		cl := dialTestServer(t, dial, nil, 5*time.Second)
		_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
		_, _ = cl.Get("k")
		_, _ = cl.Get("nope")
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st["cmd_get"] != "2" || st["get_hits"] != "1" || st["get_misses"] != "1" {
			t.Fatalf("stats: %v", st)
		}
		if st["curr_items"] != "1" {
			t.Fatalf("curr_items: %v", st["curr_items"])
		}
	})
}

func TestServerRejectsGarbage(t *testing.T) {
	conn, err := net.Dial("tcp", serveTest(t, NewServer(NewStore(0)), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	send := func(s string) string {
		if _, err := conn.Write([]byte(s)); err != nil {
			t.Fatal(err)
		}
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(line, "\r\n")
	}
	if got := send("bogus\r\n"); got != "ERROR" {
		t.Fatalf("bogus command: %q", got)
	}
	if got := send("get\r\n"); got != "ERROR" {
		t.Fatalf("get with no keys: %q", got)
	}
	if got := send("set k notanumber 0 1\r\nx\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("bad flags: %q", got)
	}
	if got := send("set k 0 0 abc\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("bad size: %q", got)
	}
	if got := send("delete\r\n"); !strings.HasPrefix(got, "CLIENT_ERROR") {
		t.Fatalf("delete with no key: %q", got)
	}
	// The connection must still work after client errors.
	if got := send("version\r\n"); !strings.HasPrefix(got, "VERSION") {
		t.Fatalf("connection broken after errors: %q", got)
	}
}

func TestServerNoreply(t *testing.T) {
	_, cl := startServer(t, 0)
	conn, err := net.Dial("tcp", cl.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two noreply sets followed by a version command; only the version
	// banner should come back.
	if _, err := conn.Write([]byte("set a 0 0 1 noreply\r\nx\r\nset b 0 0 1 noreply\r\ny\r\nversion\r\n")); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("noreply leaked a response: %q", line)
	}
	if it, err := cl.Get("a"); err != nil || string(it.Value) != "x" {
		t.Fatalf("noreply set lost: %v %v", it, err)
	}
}

func TestServerQuit(t *testing.T) {
	conn, err := net.Dial("tcp", serveTest(t, NewServer(NewStore(0)), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("quit\r\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after quit")
	}
}

func TestServerDropsOverlongLine(t *testing.T) {
	// A peer that never sends '\n' is cut off at maxLineLen rather than
	// buffered on the heap, and the next connection is served as usual.
	addr := serveTest(t, NewServer(NewStore(0)), nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	line := []byte("get " + strings.Repeat("k", maxLineLen+1<<20))
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		conn.Write(line) // fails once the server hangs up
	}()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var ne net.Error
	if _, err := conn.Read(make([]byte, 1)); err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after a %d-byte line: %v", len(line), err)
	}
	conn.Close()
	<-wrote

	next, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	next.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := next.Write([]byte("version\r\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := bufio.NewReader(next).ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("next connection: %q %v", line, err)
	}
}

func TestServerCloseIdempotentAndRefusesServe(t *testing.T) {
	srv := NewServer(NewStore(0))
	serveTest(t, srv, nil)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second close errored:", err)
	}
	ln2, _ := net.Listen("tcp", "127.0.0.1:0")
	if err := srv.Serve(ln2); err == nil {
		t.Fatal("Serve after Close succeeded")
	}
}

func TestConcurrentClients(t *testing.T) {
	addr := serveTest(t, NewServer(NewStore(0)), nil)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl, err := Dial(addr, 5*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d-%d", g, i)
				if err := cl.Set(&Item{Key: key, Value: []byte("v")}); err != nil {
					errs <- err
					return
				}
				if _, err := cl.Get(key); err != nil {
					errs <- err
					return
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

func TestClientTransactionsCounter(t *testing.T) {
	_, cl := startServer(t, 0)
	base := cl.Transactions()
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
	_, _ = cl.GetMulti([]string{"k", "a", "b"})
	if got := cl.Transactions() - base; got != 2 {
		t.Fatalf("transactions = %d, want 2", got)
	}
}

func TestClientEmptyMultiGetIsFree(t *testing.T) {
	_, cl := startServer(t, 0)
	base := cl.Transactions()
	items, err := cl.GetMulti(nil)
	if err != nil || len(items) != 0 {
		t.Fatalf("empty GetMulti: %v %v", items, err)
	}
	if cl.Transactions() != base {
		t.Fatal("empty GetMulti issued a round trip")
	}
}

func TestClientBadKeyRejectedLocally(t *testing.T) {
	_, cl := startServer(t, 0)
	if _, err := cl.GetMulti([]string{"bad key"}); !errors.Is(err, ErrBadKey) {
		t.Fatalf("want ErrBadKey, got %v", err)
	}
	if err := cl.Set(&Item{Key: "bad key", Value: []byte("v")}); !errors.Is(err, ErrBadKey) {
		t.Fatalf("want ErrBadKey, got %v", err)
	}
}

func TestEndToEndAppendPrepend(t *testing.T) {
	_, cl := startServer(t, 0)
	if err := cl.Append("k", []byte("x")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("append to missing: %v", err)
	}
	_ = cl.Set(&Item{Key: "k", Value: []byte("mid")})
	if err := cl.Append("k", []byte("-end")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Prepend("k", []byte("start-")); err != nil {
		t.Fatal(err)
	}
	it, err := cl.Get("k")
	if err != nil || string(it.Value) != "start-mid-end" {
		t.Fatalf("concat result: %v %v", it, err)
	}
}

func TestEndToEndIncrDecr(t *testing.T) {
	_, cl := startServer(t, 0)
	if _, err := cl.Incr("counter", 1); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("incr missing: %v", err)
	}
	_ = cl.Set(&Item{Key: "counter", Value: []byte("10")})
	v, err := cl.Incr("counter", 5)
	if err != nil || v != 15 {
		t.Fatalf("incr: %d %v", v, err)
	}
	v, err = cl.Decr("counter", 20)
	if err != nil || v != 0 {
		t.Fatalf("decr clamps at zero: %d %v", v, err)
	}
	// Non-numeric values error without corrupting.
	_ = cl.Set(&Item{Key: "text", Value: []byte("abc")})
	if _, err := cl.Incr("text", 1); err == nil {
		t.Fatal("incr of non-numeric value succeeded")
	}
	it, _ := cl.Get("text")
	if string(it.Value) != "abc" {
		t.Fatal("failed incr corrupted the value")
	}
}

func TestIncrBumpsCAS(t *testing.T) {
	_, cl := startServer(t, 0)
	_ = cl.Set(&Item{Key: "c", Value: []byte("1")})
	before, _ := cl.GetsMulti([]string{"c"})
	if _, err := cl.Incr("c", 1); err != nil {
		t.Fatal(err)
	}
	after, _ := cl.GetsMulti([]string{"c"})
	if after["c"].CAS <= before["c"].CAS {
		t.Fatal("incr did not advance the CAS token")
	}
}

func TestSetPinnedEndToEnd(t *testing.T) {
	// A small server under heavy churn must keep the pinned entry.
	srv, cl := startServer(t, 8*1024)

	if err := cl.SetPinned(&Item{Key: "pinned", Value: []byte("stay")}); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 200)
	for i := 0; i < 500; i++ {
		if err := cl.Set(&Item{Key: fmt.Sprintf("churn-%03d", i), Value: big}); err != nil {
			t.Fatal(err)
		}
	}
	it, err := cl.Get("pinned")
	if err != nil || string(it.Value) != "stay" {
		t.Fatalf("pinned entry lost: %v %v", it, err)
	}
	if srv.Store().Evictions() == 0 {
		t.Fatal("test premise broken: no eviction pressure")
	}
}

func TestServerSurvivesGarbageStreams(t *testing.T) {
	// Deterministic fuzz: random byte streams and half-valid command
	// streams must never crash the server or wedge the listener; after
	// each stream a fresh client must still work.
	_, cl := startServer(t, 0)
	streams := []string{
		"\r\n\r\n\r\n",
		"get\r\nget \r\n",
		"set\r\n",
		"set k 0 0 5\r\nab\r\n", // short data block
		"gets\r\ncas k 0 0 1 notanumber\r\nx\r\n",
		"VALUE who what\r\nEND\r\n",
		"stats stats stats\r\n",
		"touch\r\ntouch k\r\ntouch k abc\r\n",
		string([]byte{0, 1, 2, 255, '\n', 'g', 'e', 't', '\n'}),
		"delete  \r\n",
		"flush_all noreply\r\nversion\r\n",
		// A get's keys are views of the read buffer: pipelined behind a
		// get, a set of the same key must store a key of its own.
		"get a b\r\nset a 0 0 1\r\nx\r\nget a\r\n",
	}
	// The one stream whose reply is checked, not just drained.
	const pipelinedReply = "END\r\nSTORED\r\nVALUE a 0 1\r\nx\r\nEND\r\n"
	for i, stream := range streams {
		conn, err := net.Dial("tcp", cl.addr)
		if err != nil {
			t.Fatal(err)
		}
		// The half-close ends the server's read, so it answers what it
		// parsed and closes; the deadline only bounds a wedged server.
		conn.SetDeadline(time.Now().Add(300 * time.Millisecond))
		_, _ = conn.Write([]byte(stream))
		conn.(*net.TCPConn).CloseWrite()
		// Drain whatever comes back, then drop the connection.
		var reply []byte
		buf := make([]byte, 4096)
		for {
			n, err := conn.Read(buf)
			reply = append(reply, buf[:n]...)
			if err != nil {
				break
			}
		}
		conn.Close()
		if i == len(streams)-1 && string(reply) != pipelinedReply {
			t.Fatalf("pipelined get/set/get answered %q, want %q", reply, pipelinedReply)
		}
		// The server must still serve a well-behaved client.
		key := fmt.Sprintf("after-%d", i)
		if err := cl.Set(&Item{Key: key, Value: []byte("ok")}); err != nil {
			t.Fatalf("stream %d wedged the server: %v", i, err)
		}
		if _, err := cl.Get(key); err != nil {
			t.Fatalf("stream %d broke gets: %v", i, err)
		}
	}
}

func TestClientReconnectsAfterServerSideClose(t *testing.T) {
	srv, cl := startServer(t, 0)
	// Force-break the client's connection by restarting... simplest:
	// close all conns on server, then the next client op fails once and
	// the one after succeeds via reconnect.
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	// First op may fail (broken pipe), second must succeed.
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
	if err := cl.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatalf("client did not reconnect: %v", err)
	}
}

// keepingBackend keeps every key a get hands it, as a Backend that
// caches or queues by key may.
type keepingBackend struct {
	Backend
	mu   sync.Mutex
	kept []string
}

func (b *keepingBackend) GetMulti(keys []string) (map[string]*Item, error) {
	b.mu.Lock()
	b.kept = append(b.kept, keys...)
	b.mu.Unlock()
	return b.Backend.GetMulti(keys)
}

// TestServerCopiesKeysForOtherBackends: a get's keys are views of the
// connection's read memory, which the next read overwrites, so a Backend
// other than the store must be handed copies. Bursts of pipelined gets
// of distinct keys, all of one length, land at the same offsets of the
// connection's buffers — the text line in the read buffer, the binary
// quiet run's key bytes — and every key the backend kept must still
// read as it was sent.
func TestServerCopiesKeysForOtherBackends(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		be := &keepingBackend{Backend: storeBackend{NewStore(0)}}
		cl := dialTest(t, dial, serveTest(t, NewServerBackend(be), nil), 5*time.Second)
		var sent []string
		for burst := 0; burst < 8; burst++ {
			var gets [4]Pending
			for i := range gets {
				keys := []string{fmt.Sprintf("b%d-g%d-x", burst, i), fmt.Sprintf("b%d-g%d-y", burst, i)}
				sent = append(sent, keys...)
				cl.SendGet(obs.TraceContext{}, keys, nil, &gets[i])
			}
			for i := range gets {
				if _, _, _, err := gets[i].Collect(); err != nil {
					t.Fatal(err)
				}
			}
		}
		be.mu.Lock()
		defer be.mu.Unlock()
		if !slices.Equal(be.kept, sent) {
			t.Fatalf("kept keys changed after their request:\nkept %q\nsent %q", be.kept, sent)
		}
	})
}

// TestStoreNeverKeepsAliasedKey: the store's read path is handed views of
// the connection's read memory, so it must keep none of them, and every
// other verb must hand it keys of their own. One connection mixes gets
// of expired keys (deleted on the read, by the key the read is handed),
// gets of live keys, and set, touch and delete of other keys; afterwards
// every entry is still found under its own Item.Key.
func TestStoreNeverKeepsAliasedKey(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		var now atomic.Int64
		now.Store(1_000_000)
		store := NewStore(0)
		store.SetClock(now.Load)
		cl := dialTest(t, dial, serveTest(t, NewServer(store), nil), 5*time.Second)
		key := func(kind string, i int) string { return fmt.Sprintf("%s-%03d", kind, i) }
		want := map[string]bool{}
		for i := 0; i < 16; i++ {
			if err := cl.Set(&Item{Key: key("old", i), Value: []byte("v"), Expiration: 10}); err != nil {
				t.Fatal(err)
			}
			if err := cl.Set(&Item{Key: key("live", i), Value: []byte("v")}); err != nil {
				t.Fatal(err)
			}
			want[key("live", i)] = true
		}
		now.Add(60) // every old key has expired
		for i := 0; i < 16; i++ {
			var gets [2]Pending
			cl.SendGet(obs.TraceContext{}, []string{key("old", i), key("live", i)}, nil, &gets[0])
			cl.SendGet(obs.TraceContext{}, []string{key("live", 15-i), key("old", 15-i)}, nil, &gets[1])
			for j := range gets {
				if _, _, _, err := gets[j].Collect(); err != nil {
					t.Fatal(err)
				}
			}
			if err := cl.Set(&Item{Key: key("new", i), Value: []byte("v")}); err != nil {
				t.Fatal(err)
			}
			want[key("new", i)] = true
			if err := cl.Touch(key("live", i), 0); err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				if err := cl.Delete(key("new", i)); err != nil {
					t.Fatal(err)
				}
				delete(want, key("new", i))
			}
		}
		got := map[string]bool{}
		store.mu.Lock()
		keys := store.cache.Keys()
		items := make([]*Item, len(keys))
		for j, k := range keys {
			items[j], _ = store.cache.Peek(k)
		}
		store.mu.Unlock()
		for j, k := range keys {
			if it, err := store.Get(items[j].Key); err != nil || it != items[j] || k != it.Key {
				t.Errorf("entry %q (Item.Key %q) is not found under its own key: %v", k, items[j].Key, err)
			}
			got[k] = true
		}
		if !maps.Equal(got, want) {
			t.Fatalf("store holds %v, want %v", got, want)
		}
	})
}

// TestStoreNeverKeepsAliasedValue: a storage command's key and value are
// views of the connection's read buffer (or, past its size, of a block
// read onto the heap) that later traffic overwrites, so the store must
// keep copies. Every storage verb stores blocks of 0 and 1 bytes, of the
// reader's size minus 2 and minus 1, of its size and one byte over; on
// the binary wire also the two sizes whose frame body is exactly the
// reader's size and one byte over. A block that does not fit the buffer
// behind its command line or frame header straddles a refill. After
// later traffic on the same connection, every key and value reads back
// byte-equal over a second connection and through Store.Get.
func TestStoreNeverKeepsAliasedValue(t *testing.T) {
	const size = 64 << 10 // the server's read buffer (handleConn)
	eachWire(t, func(t *testing.T, dial dialFunc) {
		store := NewStore(0)
		addr := serveTest(t, NewServer(store), nil)
		cl := dialTest(t, dial, addr, 5*time.Second)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		seq := 0
		value := func(n int) []byte {
			seq++
			v := make([]byte, n)
			for i := range v {
				v[i] = byte('a' + (i+seq)%26)
			}
			return v
		}
		want := map[string]Item{}
		for _, verb := range []string{"set", "setp", "add", "replace", "cas", "append", "prepend"} {
			sizes := []int{0, 1, size - 2, size - 1, size, size + 1}
			if strings.HasSuffix(t.Name(), "binary") {
				extras := 8
				if verb == "append" || verb == "prepend" {
					extras = 0
				}
				body := extras + len(fmt.Sprintf("%s-%d", verb, len(sizes)))
				sizes = append(sizes, size-body, size-body+1)
			}
			for i, n := range sizes {
				key := fmt.Sprintf("%s-%d", verb, i)
				it := Item{Key: key, Value: value(n), Flags: uint32(seq)}
				switch verb {
				case "set":
					must(cl.Set(&it))
				case "setp":
					must(cl.SetPinned(&it))
				case "add":
					must(cl.Add(&it))
				case "replace":
					must(cl.Set(&Item{Key: key, Value: []byte("old")}))
					must(cl.Replace(&it))
				case "cas":
					must(cl.Set(&Item{Key: key, Value: []byte("old")}))
					got, err := cl.GetsMulti([]string{key})
					must(err)
					it.CAS = got[key].CAS
					must(cl.CompareAndSwap(&it))
				case "append":
					must(cl.Set(&Item{Key: key, Value: []byte("<>"), Flags: it.Flags}))
					must(cl.Append(key, it.Value))
					it.Value = append([]byte("<>"), it.Value...)
				case "prepend":
					must(cl.Set(&Item{Key: key, Value: []byte("<>"), Flags: it.Flags}))
					must(cl.Prepend(key, it.Value))
					it.Value = append(it.Value, "<>"...)
				}
				want[key] = it
			}
		}
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("incr-%d", i)
			must(cl.Set(&Item{Key: key, Value: []byte("41"), Flags: 9}))
			_, err := cl.Incr(key, uint64(i))
			must(err)
			want[key] = Item{Key: key, Value: []byte(fmt.Sprint(41 + i)), Flags: 9}
		}
		// Later traffic refills the connection's buffer from its start.
		var keys []string
		for key := range want {
			keys = append(keys, key)
		}
		slices.Sort(keys)
		for i := 0; i < 8; i++ {
			key := fmt.Sprintf("later-%d", i)
			it := Item{Key: key, Value: value(size - 2 - 999*i)}
			must(cl.Set(&it))
			want[key] = it
			_, err := cl.GetMulti(keys[i : i+4])
			must(err)
		}

		for i := 0; i < 8; i++ {
			keys = append(keys, fmt.Sprintf("later-%d", i))
		}
		got, err := dialTest(t, dial, addr, 5*time.Second).GetMulti(keys)
		must(err)
		for key, w := range want {
			if g := got[key]; g == nil || !bytes.Equal(g.Value, w.Value) || g.Flags != w.Flags {
				t.Errorf("%s reads back over a second connection as %.40q, want %.40q", key, g, w.Value)
			}
			if it, err := store.Get(key); err != nil || it.Key != key || !bytes.Equal(it.Value, w.Value) {
				t.Errorf("Store.Get(%s) = %.40q, %v; want %.40q", key, it, err, w.Value)
			}
		}
	})
}

// itemKeepingBackend keeps every key, Item and value a write hands it, as
// a Backend that queues writes may, with a copy taken when it was handed.
type itemKeepingBackend struct {
	Backend
	mu         sync.Mutex
	kept, sent []*Item
}

func (b *itemKeepingBackend) keep(it *Item) {
	b.mu.Lock()
	b.kept = append(b.kept, it)
	b.sent = append(b.sent, &Item{Key: strings.Clone(it.Key), Value: bytes.Clone(it.Value), Flags: it.Flags, CAS: it.CAS})
	b.mu.Unlock()
}

func (b *itemKeepingBackend) Set(it *Item) error       { b.keep(it); return b.Backend.Set(it) }
func (b *itemKeepingBackend) SetPinned(it *Item) error { b.keep(it); return b.Backend.SetPinned(it) }
func (b *itemKeepingBackend) Add(it *Item) error       { b.keep(it); return b.Backend.Add(it) }
func (b *itemKeepingBackend) Replace(it *Item) error   { b.keep(it); return b.Backend.Replace(it) }
func (b *itemKeepingBackend) CompareAndSwap(it *Item) error {
	b.keep(it)
	return b.Backend.CompareAndSwap(it)
}
func (b *itemKeepingBackend) Append(key string, data []byte) error {
	b.keep(&Item{Key: key, Value: data})
	return b.Backend.Append(key, data)
}
func (b *itemKeepingBackend) Prepend(key string, data []byte) error {
	b.keep(&Item{Key: key, Value: data})
	return b.Backend.Prepend(key, data)
}
func (b *itemKeepingBackend) Increment(key string, delta int64) (uint64, error) {
	b.keep(&Item{Key: key})
	return b.Backend.Increment(key, delta)
}
func (b *itemKeepingBackend) Delete(key string) error {
	b.keep(&Item{Key: key})
	return b.Backend.Delete(key)
}
func (b *itemKeepingBackend) Touch(key string, exp int32) error {
	b.keep(&Item{Key: key})
	return b.Backend.Touch(key, exp)
}

// TestServerCopiesItemsForOtherBackends: a write's key and value are
// views of the connection's read memory, and its Item is the
// connection's request storage, all reused by the next read, so a
// Backend other than the store must be handed copies. Bursts of every
// write verb, with keys and values of one length, land at the same
// offsets of the read buffer; every key, Item and value the backend
// kept must still read as it was when handed.
func TestServerCopiesItemsForOtherBackends(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		be := &itemKeepingBackend{Backend: storeBackend{NewStore(0)}}
		cl := dialTest(t, dial, serveTest(t, NewServerBackend(be), nil), 5*time.Second)
		for burst := 0; burst < 8; burst++ {
			key := func(verb string) string { return fmt.Sprintf("b%d-%s", burst, verb) }
			v := bytes.Repeat([]byte{byte('a' + burst)}, 32)
			for _, err := range []error{
				cl.Set(&Item{Key: key("set"), Value: v, Flags: uint32(burst)}),
				cl.SetPinned(&Item{Key: key("setp"), Value: v}),
				cl.Add(&Item{Key: key("add"), Value: v}),
				cl.Replace(&Item{Key: key("set"), Value: v}),
				cl.Append(key("set"), v),
				cl.Prepend(key("set"), v),
				cl.Set(&Item{Key: key("num"), Value: []byte("7")}),
				cl.Touch(key("add"), 0),
				cl.Delete(key("setp")),
			} {
				if err != nil {
					t.Fatal(err)
				}
			}
			if _, err := cl.Incr(key("num"), 1); err != nil {
				t.Fatal(err)
			}
			got, err := cl.GetsMulti([]string{key("add")})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.CompareAndSwap(&Item{Key: key("add"), Value: v, CAS: got[key("add")].CAS}); err != nil {
				t.Fatal(err)
			}
		}
		be.mu.Lock()
		defer be.mu.Unlock()
		for i, it := range be.kept {
			if sent := be.sent[i]; it.Key != sent.Key || !bytes.Equal(it.Value, sent.Value) || it.Flags != sent.Flags || it.CAS != sent.CAS {
				t.Errorf("write %d changed after its request: kept %q %q, handed %q %q", i, it.Key, it.Value, sent.Key, sent.Value)
			}
		}
	})
}
