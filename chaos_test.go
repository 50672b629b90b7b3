package rnb

import (
	"io"
	"net"
	"testing"
	"time"

	"rnb/internal/chaos"
	"rnb/internal/leakcheck"
	"rnb/internal/memcache"
	"rnb/internal/obs"
)

// startChaosServers is startServers with fault injectors: servers whose
// index appears in profiles serve from behind a chaos.Injector. The
// injectors start DISABLED so tests can seed data over clean
// connections; enable with SetEnabled(true) and sever the client's
// clean pooled connections with Kill()+Revive() so the reconnects run
// through the fault profile.
func startChaosServers(t *testing.T, n int, profiles map[int]chaos.Profile) ([]string, []*memcache.Server, map[int]*chaos.Injector) {
	t.Helper()
	addrs := make([]string, n)
	servers := make([]*memcache.Server, n)
	injectors := make(map[int]*chaos.Injector, len(profiles))
	for i := 0; i < n; i++ {
		srv := memcache.NewServer(memcache.NewStore(0))
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		wrapped := ln
		if prof, ok := profiles[i]; ok {
			in := chaos.New(prof)
			in.SetEnabled(false)
			injectors[i] = in
			wrapped = in.Wrap(ln)
		}
		go srv.Serve(wrapped)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
		servers[i] = srv
	}
	return addrs, servers, injectors
}

func newChaosClient(t *testing.T, n int, profiles map[int]chaos.Profile, opts ...Option) (*Client, []*memcache.Server, map[int]*chaos.Injector) {
	t.Helper()
	addrs, servers, injectors := startChaosServers(t, n, profiles)
	cl, err := NewClient(addrs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl, servers, injectors
}

// unleash enables the injector and severs every connection established
// while it was disabled, so the client's next round trips reconnect
// through the fault profile.
func unleash(in *chaos.Injector) {
	in.SetEnabled(true)
	in.Kill()
	in.Revive()
}

func seedKeys(t *testing.T, cl *Client, ks []string) {
	t.Helper()
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestChaosScriptedFaultsFullRecovery is the headline chaos scenario:
// one of four backends misbehaves per a deterministic fault script
// (stale resets, then a black hole, then refusals) while GetMulti over
// 3-replica data must keep returning 100% of the requested items —
// first via the stale-connection replay in the memcache client, then
// via mid-request re-planning onto the surviving replicas, then via the
// open breaker keeping the backend out of plans entirely.
func TestChaosScriptedFaultsFullRecovery(t *testing.T) {
	leakcheck.Check(t)
	prof := chaos.Profile{Seed: 7, Script: []chaos.ConnPlan{
		{ResetAfterWrites: 1}, // serves one response, then dies mid-stream
		{Blackhole: true},     // accepts, never answers: deadline failure
		{Refuse: true},        // connection reset on first use
	}}
	cl, _, injectors := newChaosClient(t, 4, map[int]chaos.Profile{0: prof},
		WithReplicas(3), WithTimeout(250*time.Millisecond),
		WithFailureCooldown(30*time.Second), WithRetry(2, 5*time.Millisecond))
	ks := keys(40)
	seedKeys(t, cl, ks)
	unleash(injectors[0])

	for trial := 0; trial < 8; trial++ {
		items, _, err := cl.GetMulti(ks)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(items) != len(ks) {
			t.Fatalf("trial %d: %d/%d items under chaos", trial, len(items), len(ks))
		}
	}
	if cl.Failures() == 0 {
		t.Fatal("no failure recorded though the backend black-holed a connection")
	}
	if cl.Resilience().Replans.Load() == 0 {
		t.Fatalf("missing keys were never re-planned:%s", scalars(cl))
	}
	st := injectors[0].Stats()
	if st.Resets == 0 || st.Blackholed == 0 {
		t.Fatalf("fault script not exercised: %+v", st)
	}
}

// TestChaosSeededFaultsFullRecovery runs the probabilistic profile:
// whatever mix of resets and black holes the seed draws on backend 0,
// every GetMulti must still return the full item set.
func TestChaosSeededFaultsFullRecovery(t *testing.T) {
	leakcheck.Check(t)
	prof := chaos.Profile{Seed: 42, PReset: 0.5, PBlackhole: 0.25, ResetAfterWrites: 1}
	cl, _, injectors := newChaosClient(t, 4, map[int]chaos.Profile{0: prof},
		WithReplicas(3), WithTimeout(250*time.Millisecond),
		WithFailureCooldown(30*time.Second), WithRetry(2, 5*time.Millisecond))
	ks := keys(40)
	seedKeys(t, cl, ks)
	unleash(injectors[0])

	for trial := 0; trial < 12; trial++ {
		items, _, err := cl.GetMulti(ks)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(items) != len(ks) {
			t.Fatalf("trial %d: %d/%d items under chaos", trial, len(items), len(ks))
		}
	}
	if injectors[0].Stats().Accepted == 0 {
		t.Fatal("injector saw no traffic; test proves nothing")
	}
}

// TestChaosKillReviveBreakerLifecycle kills a backend via the injector,
// watches its breaker go closed -> open -> half-open, revives the
// backend, and verifies a successful probe closes the breaker and the
// server re-enters plans (its distinguished keys are served by it
// again, with zero failed transactions).
func TestChaosKillReviveBreakerLifecycle(t *testing.T) {
	leakcheck.Check(t)
	const victim = 1
	cl, servers, injectors := newChaosClient(t, 4, map[int]chaos.Profile{victim: {}},
		WithReplicas(3), WithTimeout(300*time.Millisecond),
		WithFailureCooldown(150*time.Millisecond), WithRetry(2, 5*time.Millisecond))
	ks := keys(40)
	seedKeys(t, cl, ks)

	// Keys homed (distinguished) on the victim: single-key fetches for
	// these are routed straight at it, which both trips the breaker
	// after the kill and proves re-admission after the revive.
	var homed []string
	for _, k := range ks {
		if cl.cur.Load().replicas(k)[0] == victim {
			homed = append(homed, k)
		}
	}
	if len(homed) == 0 {
		t.Skip("ring homed no test key on the victim server")
	}

	injectors[victim].SetEnabled(true)
	injectors[victim].Kill()

	// Trip the breaker: single-key fetches route to the victim's
	// distinguished copies, still return the item (re-planned onto
	// survivors), and open the victim's breaker.
	deadline := time.Now().Add(5 * time.Second)
	for cl.ServerStates()[victim].State != BreakerOpen {
		if time.Now().After(deadline) {
			t.Fatal("breaker never opened after kill")
		}
		for _, k := range homed {
			one, _, err := cl.GetMulti([]string{k})
			if err != nil {
				t.Fatal(err)
			}
			if len(one) != 1 {
				t.Fatalf("key %s lost while victim down", k)
			}
		}
	}

	// After the cooldown the breaker turns half-open — still excluded
	// from plans until a probe succeeds.
	time.Sleep(250 * time.Millisecond)
	if st := cl.ServerStates()[victim]; st.State != BreakerHalfOpen {
		t.Fatalf("state after cooldown: %+v", st)
	}
	if !cl.cur.Load().isDown(victim) {
		t.Fatal("half-open server admitted to plans before its probe")
	}

	// Revive; the next GetMulti launches a probe, which succeeds and
	// closes the breaker within (well under) one cooldown's worth of
	// traffic.
	injectors[victim].Revive()
	deadline = time.Now().Add(5 * time.Second)
	for cl.ServerStates()[victim].State != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("revived server not re-admitted: %+v (counters%s)",
				cl.ServerStates()[victim], scalars(cl))
		}
		if _, _, err := cl.GetMulti(ks); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Re-entry: the victim's distinguished keys are served by it again.
	before := servers[victim].Stats().Transactions.Load()
	for _, k := range homed {
		items, stats, err := cl.GetMulti([]string{k})
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 1 {
			t.Fatalf("key %s lost after revive", k)
		}
		if stats.Failed != 0 {
			t.Fatalf("failed txns against a revived server: %+v", stats)
		}
	}
	if after := servers[victim].Stats().Transactions.Load(); after == before {
		t.Fatal("revived server served no transactions; not re-admitted to plans")
	}

	res := cl.Resilience()
	if res.BreakerOpened.Load() == 0 || res.BreakerHalfOpen.Load() == 0 ||
		res.BreakerClosed.Load() == 0 || res.ProbeSuccesses.Load() == 0 {
		t.Fatalf("a breaker lifecycle counter never incremented (non-zero counters:%s)", scalars(cl))
	}
}

// TestChaosFlappingBackendFullRecovery runs GetMulti in a loop against
// a backend that flaps — refuses bursts of connections, serves a few,
// dies mid-stream, repeats — and requires 100% of the items back on
// every single call. This is the failover test the fixed-cooldown
// design could not pass stably: the breaker absorbs each down phase,
// and half-open probes re-admit the backend during up phases.
func TestChaosFlappingBackendFullRecovery(t *testing.T) {
	leakcheck.Check(t)
	const victim = 2
	prof := chaos.Profile{Seed: 9, FlapDown: 2, FlapUp: 4, PReset: 1, ResetAfterWrites: 2}
	cl, _, injectors := newChaosClient(t, 4, map[int]chaos.Profile{victim: prof},
		WithReplicas(3), WithTimeout(400*time.Millisecond),
		WithFailureCooldown(40*time.Millisecond), WithRetry(2, 5*time.Millisecond))
	ks := keys(30)
	seedKeys(t, cl, ks)

	// Keys homed on the victim: single-key fetches for these route to
	// its distinguished copy, guaranteeing the flap schedule is hit
	// (a batch cover over 3-replica data may legally bypass one server).
	var homed []string
	for _, k := range ks {
		if cl.cur.Load().replicas(k)[0] == victim {
			homed = append(homed, k)
		}
	}
	if len(homed) == 0 {
		t.Skip("ring homed no test key on the victim server")
	}
	unleash(injectors[victim])

	for trial := 0; trial < 25; trial++ {
		items, _, err := cl.GetMulti(ks)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(items) != len(ks) {
			t.Fatalf("trial %d: %d/%d items under flapping", trial, len(items), len(ks))
		}
		for _, k := range homed {
			one, _, err := cl.GetMulti([]string{k})
			if err != nil {
				t.Fatalf("trial %d key %s: %v", trial, k, err)
			}
			if len(one) != 1 {
				t.Fatalf("trial %d: key %s lost under flapping", trial, k)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if injectors[victim].Stats().Refused == 0 {
		t.Fatal("flap schedule refused no connections; test proves nothing")
	}

	// The flap always cycles back to an up phase, so the breaker must
	// eventually sit closed again (probes succeed during up phases).
	deadline := time.Now().Add(5 * time.Second)
	for cl.ServerStates()[victim].State != BreakerClosed {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-closed on a flapping backend: %+v (counters%s)",
				cl.ServerStates()[victim], scalars(cl))
		}
		if _, _, err := cl.GetMulti(ks); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosScrapeDuringBlackhole: a scrape must show an outage, not
// hang behind it. A Get parks on a black-holed server for its whole I/O
// timeout holding the connection mutex; the transaction count and a
// full registry render must not wait for it.
func TestChaosScrapeDuringBlackhole(t *testing.T) {
	leakcheck.Check(t)
	const timeout = 600 * time.Millisecond
	prof := chaos.Profile{Script: []chaos.ConnPlan{{Blackhole: true}}}
	cl, _, injectors := newChaosClient(t, 1, map[int]chaos.Profile{0: prof},
		WithTimeout(timeout), WithRetry(0, 0))
	seedKeys(t, cl, []string{"k"})
	reg := obs.NewRegistry()
	cl.RegisterMetrics(reg)
	unleash(injectors[0])

	parked := make(chan error, 1)
	go func() {
		_, err := cl.Get("k")
		parked <- err
	}()
	for injectors[0].Stats().Blackholed == 0 { // the Get has dialed into the hole
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	txns := cl.Transactions()
	if err := reg.Render(io.Discard); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("Transactions() + registry render took %v behind a black-holed server (I/O timeout %v)", took, timeout)
	}
	if txns == 0 {
		t.Error("no transaction counted")
	}
	select {
	case err := <-parked:
		if err == nil {
			t.Error("Get through a black hole succeeded; the scenario proves nothing")
		}
	case <-time.After(10 * timeout):
		t.Fatal("parked Get never timed out")
	}
}

// TestChaosFailedRequestRecordNotReused: a multi-get whose transaction
// failed leaves its working record to the collector — the failed
// transaction's connection slot may still hold its keys — while a clean
// one gives it back for the next request. Every backend resets or
// refuses connections per a seeded profile (breakers off, so the faulty
// servers stay in plans); each request's span, which lives in its
// record, is caught by the slow log, and no request may ever get a
// record a failed request had. Every connection dies after two
// responses, and a seeded half of the redials are refused, so a replay
// often fails too.
func TestChaosFailedRequestRecordNotReused(t *testing.T) {
	leakcheck.Check(t)
	var last *obs.Span // SlowLog runs on the requesting goroutine
	profiles := map[int]chaos.Profile{}
	for i := 0; i < 3; i++ {
		profiles[i] = chaos.Profile{Seed: int64(11 + i), PRefuse: 0.5, PReset: 1, ResetAfterWrites: 2}
	}
	cl, _, injectors := newChaosClient(t, 3, profiles,
		WithReplicas(3), WithTimeout(250*time.Millisecond),
		WithFailureCooldown(0), WithRetry(1, time.Millisecond),
		WithObservability(ObsConfig{SlowThreshold: time.Nanosecond, SlowLog: func(sp *obs.Span) { last = sp }}))
	ks := keys(12)
	seedKeys(t, cl, ks)
	for _, in := range injectors {
		unleash(in)
	}

	failed := map[*obs.Span]bool{} // records of failed requests, kept alive
	seen := map[*obs.Span]bool{}
	var failures, reuses int
	for i := 0; i < 60; i++ {
		items, stats, err := cl.GetMulti(ks)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for k, it := range items {
			if it.Key != k || string(it.Value) != "v" {
				t.Fatalf("request %d: key %s came back as %+v", i, k, it)
			}
		}
		if failed[last] {
			t.Fatalf("request %d got the record of a request whose transaction failed", i)
		}
		if seen[last] {
			reuses++
		}
		seen[last] = true
		if stats.Failed > 0 {
			failed[last] = true
			failures++
		}
	}
	t.Logf("%d of 60 requests failed a transaction; %d reused a record", failures, reuses)
	if failures == 0 || reuses == 0 {
		t.Fatal("the profile proves nothing")
	}
}
