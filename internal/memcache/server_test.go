package memcache

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"rnb/internal/chaos"
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
	}
	for i, stream := range streams {
		conn, err := net.Dial("tcp", cl.addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(300 * time.Millisecond))
		_, _ = conn.Write([]byte(stream))
		// Drain whatever comes back, then drop the connection.
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		conn.Close()
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
