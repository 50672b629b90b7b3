package memcache

import (
	"net"
	"testing"
	"time"

	"rnb/internal/chaos"
)

// dialFunc is Dial or DialBinary.
type dialFunc func(addr string, timeout time.Duration) (*Client, error)

// eachWire runs fn once per codec: the exchanger's deadline, replay and
// redial rules must hold whatever bytes it carries.
func eachWire(t *testing.T, fn func(t *testing.T, dial dialFunc)) {
	t.Helper()
	t.Run("text", func(t *testing.T) { fn(t, Dial) })
	t.Run("binary", func(t *testing.T) { fn(t, DialBinary) })
}

// dialTestServer starts an in-process server (optionally behind a
// chaos injector) and returns a connected client.
func dialTestServer(t *testing.T, dial dialFunc, in *chaos.Injector, timeout time.Duration) *Client {
	t.Helper()
	return dialTest(t, dial, serveTest(t, NewServer(NewStore(0)), in), timeout)
}

// TestDeadlineRearmedAfterIdle is the regression test for the stale-
// deadline bug: a pooled connection must not inherit the previous
// round trip's deadline. After sitting idle for several multiples of
// the timeout, operations must still succeed because every round trip
// (re)arms a fresh deadline.
func TestDeadlineRearmedAfterIdle(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		cl := dialTestServer(t, dial, nil, 60*time.Millisecond)
		if err := cl.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			time.Sleep(150 * time.Millisecond) // well past the armed deadline
			it, err := cl.Get("k")
			if err != nil {
				t.Fatalf("idle round %d: stale deadline killed the trip: %v", i, err)
			}
			if string(it.Value) != "v" {
				t.Fatalf("idle round %d: value %q", i, it.Value)
			}
		}
	})
}

// TestIdleConnectionOutlivesItsDeadline: nothing clears the deadline
// after a round trip, so it lapses while the connection sits idle — and
// the next request must still be served on that same connection. Sets,
// because a mutation is never replayed: a trip killed by the stale
// deadline would fail here instead of hiding behind a reconnect, and
// the server must have seen exactly one connection.
func TestIdleConnectionOutlivesItsDeadline(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		srv := NewServer(NewStore(0))
		cl := dialTest(t, dial, serveTest(t, srv, nil), 60*time.Millisecond)
		for i := 0; i < 3; i++ {
			if err := cl.Set(&Item{Key: "k", Value: []byte{byte('0' + i)}}); err != nil {
				t.Fatalf("set %d after idling past the deadline: %v", i, err)
			}
			time.Sleep(150 * time.Millisecond)
		}
		if n := srv.Stats().TotalConns.Load(); n != 1 {
			t.Fatalf("server saw %d connections, want the one", n)
		}
	})
}

// TestDeadlineStillEnforced: the deadline must still fire against a
// server that accepts but never answers (black hole), bounding the
// round trip to roughly the configured timeout.
func TestDeadlineStillEnforced(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		in := chaos.New(chaos.Profile{Seed: 1, PBlackhole: 1})
		cl := dialTestServer(t, dial, in, 100*time.Millisecond)
		start := time.Now()
		_, err := cl.Get("k")
		elapsed := time.Since(start)
		if err == nil {
			t.Fatal("black-holed round trip succeeded")
		}
		// One attempt plus the transparent idempotent replay: at most ~2
		// timeouts plus slack, never unbounded.
		if elapsed > time.Second {
			t.Fatalf("round trip took %v; deadline not armed", elapsed)
		}
	})
}

// TestStaleConnectionReplay: a server that resets the connection after
// every response (restart-per-op) must be invisible to read callers —
// the client reconnects and replays idempotent reads once.
func TestStaleConnectionReplay(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		in := chaos.New(chaos.Profile{Seed: 1, Script: []chaos.ConnPlan{{ResetAfterWrites: 1}}})
		cl := dialTestServer(t, dial, in, time.Second)
		if err := cl.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
			t.Fatal(err) // first op on a fresh conn: served, then the conn dies
		}
		for i := 0; i < 5; i++ {
			it, err := cl.Get("k")
			if err != nil {
				t.Fatalf("read %d not replayed over a fresh connection: %v", i, err)
			}
			if string(it.Value) != "v" {
				t.Fatalf("read %d: value %q", i, it.Value)
			}
		}
		if in.Stats().Resets == 0 {
			t.Fatal("chaos injected no resets; test proves nothing")
		}
	})
}

// TestMutationsNotReplayed: non-idempotent operations must surface the
// stale-connection error instead of being silently replayed.
func TestMutationsNotReplayed(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		in := chaos.New(chaos.Profile{Seed: 1, Script: []chaos.ConnPlan{{ResetAfterWrites: 1}}})
		cl := dialTestServer(t, dial, in, time.Second)
		if err := cl.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
		// The pooled connection is now dead; the next mutation must fail
		// rather than replay.
		if err := cl.Set(&Item{Key: "k", Value: []byte("w")}); err == nil {
			t.Fatal("mutation on a stale connection silently replayed")
		}
		// But the client recovers on the following round trip.
		if err := cl.Set(&Item{Key: "k", Value: []byte("w")}); err != nil {
			t.Fatalf("recovery after stale-conn error: %v", err)
		}
	})
}

// TestRedialRecoversRestartedListener: a server restarted on the same
// address is reconnected to by the next command after it is back — the
// client dials on demand, so it needs no redial policy of its own.
func TestRedialRecoversRestartedListener(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		srv := NewServer(NewStore(0))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		go srv.Serve(ln)
		cl, err := dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		if err := cl.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}

		// Restart the server on the same port after a short outage.
		srv.Close()
		go func() {
			time.Sleep(60 * time.Millisecond)
			srv2 := NewServer(NewStore(0))
			ln2, err := net.Listen("tcp", addr)
			if err != nil {
				return
			}
			go srv2.Serve(ln2)
		}()

		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, err := cl.Get("k"); err == nil || err == ErrCacheMiss {
				return // reconnected (the restarted store is empty: a miss is fine)
			}
			if time.Now().After(deadline) {
				t.Fatal("client never reconnected to the restarted listener")
			}
			time.Sleep(20 * time.Millisecond)
		}
	})
}
