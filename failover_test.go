package rnb

import (
	"errors"
	"fmt"
	"io"
	"maps"
	"strings"
	"testing"
	"time"

	"rnb/internal/memcache"
)

// failOn records one network error against server s the way every
// operation does: through slot.do's verdict.
func failOn(cl *Client, s int) {
	_ = cl.cur.Load().slots[s].do(func(memcache.Conn) error { return io.ErrUnexpectedEOF })
}

// TestReadFailoverToSurvivingReplicas kills one backend server and
// verifies multi-gets keep returning every item via the surviving
// replicas and acting-distinguished copies.
func TestReadFailoverToSurvivingReplicas(t *testing.T) {
	cl, servers := newTestClient(t, 4, WithReplicas(3),
		WithFailureCooldown(30*time.Second))
	ks := keys(40)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill backend 1 hard.
	servers[1].Close()

	// Batch fetch: everything must come back via surviving replicas (3
	// replicas on 4 servers leave >= 2 live copies per key). Whether
	// this particular plan touches the dead server depends on the
	// (port-derived) ring, so the failure counter is checked later.
	items, stats, err := cl.GetMulti(ks)
	if err != nil {
		t.Fatalf("fetch during failure: %v", err)
	}
	if len(items) != len(ks) {
		t.Fatalf("only %d/%d items during failover (stats %+v)", len(items), len(ks), stats)
	}

	// Single-key fetches route to each key's distinguished server;
	// ~1/4 of the keys are homed on the dead one, so this reliably
	// exercises the failure path.
	for _, k := range ks {
		one, _, err := cl.GetMulti([]string{k})
		if err != nil {
			t.Fatalf("single fetch %s: %v", k, err)
		}
		if len(one) != 1 {
			t.Fatalf("key %s lost during failover", k)
		}
	}
	if cl.Failures() == 0 {
		t.Fatal("failure not recorded after touching every distinguished server")
	}

	// Subsequent fetches plan around the quarantined server: no new
	// failures, everything served in round 1 or 2.
	for trial := 0; trial < 3; trial++ {
		items, stats, err = cl.GetMulti(ks)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(ks) {
			t.Fatalf("trial %d: %d/%d items", trial, len(items), len(ks))
		}
		if stats.Failed != 0 {
			t.Fatalf("trial %d: %d failed txns though the server is quarantined", trial, stats.Failed)
		}
	}
}

// TestReadFailoverWithLoaderCoversOrphans kills a server while running
// with 1 replica: orphaned keys must be served by the loader.
func TestReadFailoverWithLoaderCoversOrphans(t *testing.T) {
	loader := func(missing []string) (map[string][]byte, error) {
		out := map[string][]byte{}
		for _, k := range missing {
			out[k] = []byte("db:" + k)
		}
		return out, nil
	}
	cl, servers := newTestClient(t, 4, WithReplicas(1),
		WithFailureCooldown(30*time.Second), WithLoader(loader))
	ks := keys(40)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	servers[2].Close()

	// First fetch trips the failure; by the second fetch the planner
	// avoids the server entirely and the loader fills the orphans.
	if _, _, err := cl.GetMulti(ks); err != nil {
		t.Fatalf("fetch during failure: %v", err)
	}
	items, stats, err := cl.GetMulti(ks)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(ks) {
		t.Fatalf("%d/%d items with loader failover", len(items), len(ks))
	}
	if stats.Failed != 0 {
		t.Fatalf("failed txns after quarantine: %+v", stats)
	}
	// Some keys were homed on the dead server and must show DB values;
	// loader writes could not be replicated onto the dead server, so
	// they keep coming from the loader or a live cache write.
	dbServed := 0
	for _, it := range items {
		if strings.HasPrefix(string(it.Value), "db:") {
			dbServed++
		}
	}
	if dbServed == 0 {
		t.Fatal("no keys served from the loader though their only replica died")
	}
}

// TestLoaderStoresNothingOnActingSurvivor: a key its distinguished
// server cannot serve and its surviving replica does not hold is the
// loader's on every read of it. The loader's Set writes the down
// distinguished copy first, fails there, and so stores nothing on the
// survivor. The simulator rules the same way
// (cluster.TestActingSurvivorMissOwedEveryTime).
func TestLoaderStoresNothingOnActingSurvivor(t *testing.T) {
	loader := func(missing []string) (map[string][]byte, error) {
		out := map[string][]byte{}
		for _, k := range missing {
			out[k] = []byte("db:" + k)
		}
		return out, nil
	}
	cl, servers := newTestClient(t, 3, WithReplicas(2),
		WithFailureCooldown(30*time.Second), WithLoader(loader))
	key := keys(1)[0]
	replicas := cl.cur.Load().placement.Replicas(keyID(key), nil)
	servers[replicas[0]].Close()
	for read := 1; read <= 2; read++ {
		items, stats, err := cl.GetMulti([]string{key})
		if err != nil {
			t.Fatalf("read %d: %v", read, err)
		}
		if it := items[key]; it == nil || string(it.Value) != "db:"+key {
			t.Fatalf("read %d: got %v, want the loader's value", read, it)
		}
		if stats.Loaded != 1 {
			t.Fatalf("read %d: Loaded = %d, want 1 (%+v)", read, stats.Loaded, stats)
		}
		if _, err := servers[replicas[1]].Store().Get(key); err == nil {
			t.Fatalf("read %d: the acting survivor holds the loaded key", read)
		}
	}
}

// TestCooldownExpiresAndServerReturns verifies the breaker lifecycle:
// a tripped server turns half-open once the cooldown elapses — still
// routed around — and is re-admitted by a successful probe.
func TestCooldownExpiresAndServerReturns(t *testing.T) {
	cl, _ := newTestClient(t, 2, WithReplicas(2),
		WithFailureCooldown(50*time.Millisecond))
	failOn(cl, 0)
	if !cl.cur.Load().isDown(0) {
		t.Fatal("server not quarantined")
	}
	if st := cl.ServerStates()[0]; st.State != BreakerOpen || st.ConsecutiveFailures != 1 {
		t.Fatalf("state after failure: %+v", st)
	}
	time.Sleep(80 * time.Millisecond)
	if st := cl.ServerStates()[0]; st.State != BreakerHalfOpen {
		t.Fatalf("state after cooldown: %+v", st)
	}
	if !cl.cur.Load().isDown(0) {
		t.Fatal("half-open server admitted to plans before its probe")
	}
	// The server is actually alive, so the probe re-closes the breaker.
	cl.probeHalfOpen(cl.cur.Load())
	deadline := time.Now().Add(2 * time.Second)
	for cl.cur.Load().isDown(0) {
		if time.Now().After(deadline) {
			t.Fatal("probe did not re-admit a live server")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := cl.ServerStates()[0]
	if st.State != BreakerClosed || st.ConsecutiveFailures != 0 {
		t.Fatalf("state after successful probe: %+v", st)
	}
	if cl.Resilience().ProbeSuccesses.Load() != 1 {
		t.Fatalf("probe not recorded:%s", scalars(cl))
	}
}

// roundOneServers returns the servers the client's latest multi-get
// sent its round-1 transactions to, from its span.
func roundOneServers(cl *Client) map[int]bool {
	out := map[int]bool{}
	for _, r := range cl.RecentRequests()[0].RTTs {
		if r.Phase == "fanout" {
			out[r.Server] = true
		}
	}
	return out
}

// TestPlanAvoidsOpenBreakerUntilProbeCloses: while every breaker is
// closed the read path skips the breaker filter altogether (no breaker
// mutex per candidate server), so the guard must not outlive a trip.
// Trip the breaker of a server the plan uses: the next plan must route
// around it. Once its probe closes the breaker, the plan is the healthy
// one again, the server in it.
func TestPlanAvoidsOpenBreakerUntilProbeCloses(t *testing.T) {
	cl, _ := newTestClient(t, 4, WithReplicas(2), WithFailureCooldown(50*time.Millisecond))
	ks := keys(40)
	seedKeys(t, cl, ks)
	get := func(when string) map[int]bool {
		t.Helper()
		items, stats, err := cl.GetMulti(ks)
		if err != nil || len(items) != len(ks) || stats.Failed != 0 {
			t.Fatalf("%s: %d/%d items, %+v, err %v", when, len(items), len(ks), stats, err)
		}
		return roundOneServers(cl)
	}
	healthy := get("healthy")
	victim := plannedServer(t, cl, ks)
	if !healthy[victim] {
		t.Fatalf("planned server %d not in the healthy fan-out %v", victim, healthy)
	}

	failOn(cl, victim)
	if cl.unhealthy.Load() != 1 {
		t.Fatalf("unhealthy = %d after one trip", cl.unhealthy.Load())
	}
	if got := get("breaker open"); got[victim] {
		t.Fatalf("plan %v routes to server %d, whose breaker is open", got, victim)
	}

	// After the cooldown a request launches the probe; the server is
	// alive, so the probe closes the breaker.
	time.Sleep(80 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for cl.ServerStates()[victim].State != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("probe never closed the breaker: %+v", cl.ServerStates()[victim])
		}
		get("half-open")
		time.Sleep(5 * time.Millisecond)
	}
	if cl.unhealthy.Load() != 0 {
		t.Fatalf("unhealthy = %d with every breaker closed", cl.unhealthy.Load())
	}
	if got := get("probe closed"); !maps.Equal(got, healthy) {
		t.Fatalf("plan after the probe %v, want the healthy plan %v", got, healthy)
	}
}

// TestFailureTrackingDisabled verifies cooldown <= 0 disables
// quarantining.
func TestFailureTrackingDisabled(t *testing.T) {
	cl, _ := newTestClient(t, 2, WithFailureCooldown(0))
	failOn(cl, 0)
	if cl.cur.Load().isDown(0) {
		t.Fatal("server quarantined with tracking disabled")
	}
	if cl.Failures() != 1 {
		t.Fatal("failure counter should still count")
	}
}

// TestRecoveryAvoidsFailedServerWithBreakersOff: with breakers off the
// breaker view names no server, so only the request's own record of
// what failed keeps its recovery off a server that died under round 1.
// The one re-plan and round 2 must both route around it.
func TestRecoveryAvoidsFailedServerWithBreakersOff(t *testing.T) {
	cl, servers := newTestClient(t, 4, WithReplicas(3), WithFailureCooldown(0))
	ks := keys(40)
	seedKeys(t, cl, ks)
	victim := plannedServer(t, cl, ks)
	servers[victim].Close()
	items, stats, err := cl.GetMulti(ks)
	if err != nil || len(items) != len(ks) || stats.Replans != 1 {
		t.Fatalf("%d/%d items, %+v, err %v; want every key after one re-plan", len(items), len(ks), stats, err)
	}
	for _, r := range cl.RecentRequests()[0].RTTs {
		if r.Phase != "fanout" && r.Server == victim {
			t.Fatalf("%s transaction sent to server %d, which failed in round 1", r.Phase, victim)
		}
	}
}

// TestWriteFailureSurfacesAndQuarantines: writes must report errors
// (durability is the caller's concern) but also quarantine.
func TestWriteFailureSurfacesAndQuarantines(t *testing.T) {
	cl, servers := newTestClient(t, 2, WithReplicas(2),
		WithFailureCooldown(30*time.Second))
	servers[0].Close()
	servers[1].Close()
	err := cl.Set(&Item{Key: "k", Value: []byte("v")})
	if err == nil {
		t.Fatal("write to dead tier succeeded")
	}
	if cl.Failures() == 0 {
		t.Fatal("write failure not recorded")
	}
}

// TestFailoverConcurrent hammers GetMulti from several goroutines while
// a server dies mid-run; no request may error and all items must be
// accounted for (present or absent, never a hard failure).
func TestFailoverConcurrent(t *testing.T) {
	cl, servers := newTestClient(t, 4, WithReplicas(3),
		WithFailureCooldown(30*time.Second))
	ks := keys(30)
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 8)
	kill := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 40; i++ {
				if g == 0 && i == 10 {
					close(kill)
				}
				if _, _, e := cl.GetMulti(ks); e != nil {
					err = fmt.Errorf("goroutine %d iter %d: %w", g, i, e)
					break
				}
			}
			done <- err
		}(g)
	}
	go func() {
		<-kill
		servers[3].Close()
	}()
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestProtocolRefusalsNeverFeedBreaker: an invalid key or an oversized
// value is the caller's mistake, answered (or refused before the wire)
// without any sign of a sick server. Over both transports, none of it
// may count as a failure or move a breaker off closed — two such calls
// used to quarantine two of three healthy servers.
func TestProtocolRefusalsNeverFeedBreaker(t *testing.T) {
	transports := map[string][]Option{
		"single":        nil,
		"pooled-binary": {WithPoolSize(4), WithBinaryProtocol()},
	}
	for name, opts := range transports {
		cl, _ := newTestClient(t, 3, append(opts, WithReplicas(3), WithFailureCooldown(30*time.Second))...)
		if err := cl.Set(&Item{Key: "ok", Value: []byte("v")}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		huge := make([]byte, memcache.MaxValueLen+1)
		for i := 0; i < 3; i++ {
			if err := cl.Set(&Item{Key: "bad key", Value: []byte("v")}); !errors.Is(err, memcache.ErrBadKey) {
				t.Fatalf("%s: Set bad key: %v", name, err)
			}
			if err := cl.Set(&Item{Key: "big", Value: huge}); !errors.Is(err, memcache.ErrTooLarge) {
				t.Fatalf("%s: Set oversized: %v", name, err)
			}
			if err := cl.Update(&Item{Key: "bad key", Value: []byte("v")}); !errors.Is(err, memcache.ErrBadKey) {
				t.Fatalf("%s: Update bad key: %v", name, err)
			}
			if err := cl.Update(&Item{Key: "big", Value: huge}); !errors.Is(err, memcache.ErrTooLarge) {
				t.Fatalf("%s: Update oversized: %v", name, err)
			}
			if _, err := cl.Get("bad key"); !errors.Is(err, memcache.ErrBadKey) {
				t.Fatalf("%s: Get bad key: %v", name, err)
			}
			// A multi-get degrades per transaction: the refused bundle's
			// keys come back absent, the request itself succeeds.
			if _, _, err := cl.GetMulti([]string{"ok", "bad key"}); err != nil {
				t.Fatalf("%s: GetMulti with a bad key: %v", name, err)
			}
		}
		if n := cl.Failures(); n != 0 {
			t.Errorf("%s: %d failures counted for protocol refusals", name, n)
		}
		for _, st := range cl.ServerStates() {
			if st.State != BreakerClosed || st.ConsecutiveFailures != 0 {
				t.Errorf("%s: healthy server quarantined by protocol refusals: %+v", name, st)
			}
		}
	}
}

// TestEveryMutatorFeedsBreakerOnNetworkError: a dead server is a dead
// server whichever call finds it. Each mutator, the CAS read and
// flush_all must count the network error and open the dead server's
// breaker, not just Set.
func TestEveryMutatorFeedsBreakerOnNetworkError(t *testing.T) {
	calls := map[string]func(cl *Client, key string) error{
		"Delete":    func(cl *Client, key string) error { return cl.Delete(key) },
		"Touch":     func(cl *Client, key string) error { return cl.Touch(key, 60) },
		"Increment": func(cl *Client, key string) error { _, err := cl.Increment(key, 1); return err },
		"Append":    func(cl *Client, key string) error { return cl.Append(key, []byte("0")) },
		"Update":    func(cl *Client, key string) error { return cl.Update(&Item{Key: key, Value: []byte("2")}) },
		"UpdateCAS": func(cl *Client, key string) error { return cl.UpdateCAS(&Item{Key: key, Value: []byte("2"), CAS: 1}) },
		"GetsDistinguished": func(cl *Client, key string) error {
			_, err := cl.GetsDistinguished([]string{key})
			return err
		},
		"FlushAll": func(cl *Client, _ string) error { return cl.FlushAll() },
	}
	for name, call := range calls {
		// r = n: the key has a copy on every server, the dead one
		// included, wherever the port-derived ring puts them.
		cl, servers := newTestClient(t, 3, WithReplicas(3), WithFailureCooldown(30*time.Second))
		const key = "counter"
		if err := cl.Set(&Item{Key: key, Value: []byte("1")}); err != nil {
			t.Fatal(err)
		}
		dead := cl.cur.Load().replicas(key)[0]
		servers[dead].Close()
		if err := call(cl, key); err == nil {
			t.Errorf("%s against a dead server succeeded", name)
		}
		if cl.Failures() == 0 {
			t.Errorf("%s: network error not counted", name)
		}
		if st := cl.ServerStates()[dead]; st.State != BreakerOpen {
			t.Errorf("%s: dead server's breaker did not open: %+v", name, st)
		}
	}
}
