package rnb

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rnb/internal/chaos"
	"rnb/internal/leakcheck"
	"rnb/internal/memcache"
)

// This file is the live-elasticity e2e suite: servers join and drain
// under continuous load, and every idempotent read must keep returning
// the full item set — the superset invariant of the transition design
// made into an assertion. The backing loader stands in for the
// database tier, so "full item set" is exactly the paper's contract:
// a resize may shift load to the DB for re-placed keys, but it may
// never surface a failure to the application.

// dbLoader is a stand-in backing store that knows every key.
func dbLoader(missing []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(missing))
	for _, k := range missing {
		out[k] = []byte("db:" + k)
	}
	return out, nil
}

// elasticOpts is the option set shared by the resize tests: 3-way
// replication, a fast transition window so epochs retire within the
// test, and the loader backstopping re-placed keys.
func elasticOpts(extra ...Option) []Option {
	opts := []Option{
		WithReplicas(3),
		WithLoader(dbLoader),
		WithTimeout(time.Second),
		WithTransitionWindow(150 * time.Millisecond),
	}
	return append(opts, extra...)
}

// readerPool runs n goroutines calling GetMulti(ks) in a tight loop
// until stop is closed, recording the first error and any short result.
type readerPool struct {
	wg         sync.WaitGroup
	stop       chan struct{}
	reads      atomic.Uint64
	incomplete atomic.Uint64
	errOnce    sync.Once
	err        atomic.Pointer[error]
}

func startReaders(cl *Client, ks []string, n int) *readerPool {
	p := &readerPool{stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				select {
				case <-p.stop:
					return
				default:
				}
				items, _, err := cl.GetMulti(ks)
				p.reads.Add(1)
				if err != nil {
					p.errOnce.Do(func() { p.err.Store(&err) })
					return
				}
				if len(items) != len(ks) {
					p.incomplete.Add(1)
				}
			}
		}()
	}
	return p
}

// finish stops the readers and asserts zero failed and zero incomplete
// reads.
func (p *readerPool) finish(t *testing.T) {
	t.Helper()
	close(p.stop)
	p.wg.Wait()
	if ep := p.err.Load(); ep != nil {
		t.Fatalf("idempotent read failed during resize: %v", *ep)
	}
	if n := p.incomplete.Load(); n != 0 {
		t.Fatalf("%d of %d reads returned short item sets during resize", n, p.reads.Load())
	}
	if p.reads.Load() == 0 {
		t.Fatal("readers made no progress; test proves nothing")
	}
}

// TestResizeUnderLoadZeroMissReads grows a 4-server tier to 6 and then
// drains two of the original members, all under continuous multi-get
// load. Every read throughout must return every key, every drain must
// complete cleanly (no in-flight request dropped, no forced close),
// and the departed servers' series must vanish from ServerStates.
func TestResizeUnderLoadZeroMissReads(t *testing.T) {
	leakcheck.Check(t)
	addrs, _ := startServers(t, 6, 0)
	cl, err := NewClient(addrs[:4], elasticOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ks := keys(60)
	seedKeys(t, cl, ks)

	readers := startReaders(cl, ks, 3)
	for _, addr := range addrs[4:6] {
		if err := cl.AddServer(addr); err != nil {
			t.Fatalf("AddServer(%s): %v", addr, err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	for _, addr := range addrs[0:2] {
		if err := cl.RemoveServer(addr); err != nil {
			t.Fatalf("RemoveServer(%s): %v", addr, err)
		}
		time.Sleep(30 * time.Millisecond)
	}
	if !cl.WaitSettled(10 * time.Second) {
		t.Fatalf("tier never settled; view %v", cl.View())
	}
	readers.finish(t)

	topo := cl.Topology()
	if topo.Joins.Load() != 2 || topo.Drains.Load() != 2 {
		t.Fatalf("join/drain counters wrong:%s", scalars(cl))
	}
	if topo.DrainsCompleted.Load() != 2 || topo.DrainsForced.Load() != 0 {
		t.Fatalf("drains did not all complete cleanly:%s", scalars(cl))
	}
	if topo.EpochsRetired.Load() == 0 {
		t.Fatalf("no superseded epoch ever retired:%s", scalars(cl))
	}
	states := cl.ServerStates()
	if len(states) != 4 {
		t.Fatalf("ServerStates has %d entries after settling, want 4: %+v", len(states), states)
	}
	for _, st := range states {
		if st.Addr == addrs[0] || st.Addr == addrs[1] {
			t.Fatalf("drained server %s still reported (ghost series): %+v", st.Addr, st)
		}
		if st.Phase != "active" {
			t.Fatalf("settled member not active: %+v", st)
		}
	}
	// Post-resize reads on the final topology stay whole.
	items, _, err := cl.GetMulti(ks)
	if err != nil || len(items) != len(ks) {
		t.Fatalf("post-resize read: %d/%d items, err %v", len(items), len(ks), err)
	}
}

// TestResizeUnderConcurrentSets: a resize never leaves a readable copy
// older than the last acknowledged Set. Writers on disjoint keys Set
// continuously through an add, a drain, and a rejoin of the drained
// server. Once a resize settles, every copy in the current replica set
// is read from its server directly: it must hold the last value
// acknowledged before the read or a newer one (a Set still in flight,
// or one that failed part-way), or be missing.
//
// Continuous writers rewrite every key inside each transition window,
// which would hide a stale copy, so a band of quiet keys is Set once
// before the drain and once more before the rejoin, and left alone in
// between. The drained server keeps running with the first value, the
// second skips it, and rejoining it must not make the first readable
// again. The band starts after the add: a key left unwritten across an
// add and a later drain can still read a copy that the add's server
// displaced and the drain re-admits (ROADMAP, "orphaned copies").
func TestResizeUnderConcurrentSets(t *testing.T) {
	leakcheck.Check(t)
	addrs, _ := startServers(t, 6, 0)
	cl, err := NewClient(addrs[:5], WithReplicas(3), WithTimeout(time.Second),
		WithTransitionWindow(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	const writers, perWriter, quiet = 4, 25, 100
	busy := writers * perWriter
	acked := make([]atomic.Int64, busy+quiet)
	key := func(i int) string { return fmt.Sprintf("rcs:%03d", i) }
	set := func(i int, v int64) error {
		err := cl.Set(&Item{Key: key(i), Value: strconv.AppendInt(nil, v, 10)})
		if err == nil {
			acked[i].Store(v)
		}
		return err
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failed atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := int64(1); ; v++ {
				for i := w * perWriter; i < (w+1)*perWriter; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if set(i, v) != nil {
						failed.Add(1) // a drained connection closing under the Set
					}
				}
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	check := func(step string) {
		t.Helper()
		if !cl.WaitSettled(10 * time.Second) {
			t.Fatalf("%s never settled; view %v", step, cl.View())
		}
		want := make([]int64, len(acked))
		for i := range acked {
			want[i] = acked[i].Load()
		}
		tr := cl.cur.Load()
		stale := 0
		for i, w := range want {
			for _, s := range tr.replicas(key(i)) {
				var it *Item
				err := tr.slots[s].do(func(conn *memcache.Client) (err error) {
					it, err = conn.Get(key(i))
					return err
				})
				if errors.Is(err, ErrCacheMiss) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: reading %s on server %d: %v", step, key(i), s, err)
				}
				if v, _ := strconv.ParseInt(string(it.Value), 10, 64); v < w {
					if stale++; stale <= 5 {
						t.Errorf("%s: %s on server %d holds %d, the last acknowledged Set wrote %d", step, key(i), s, v, w)
					}
				}
			}
		}
		if stale > 0 {
			t.Fatalf("%s: %d stale readable copies", step, stale)
		}
	}

	steps := []struct {
		name   string
		resize func() error
	}{
		{"add", func() error { return cl.AddServer(addrs[5]) }},
		{"drain", func() error { return cl.RemoveServer(addrs[2]) }},
		{"rejoin", func() error { return cl.AddServer(addrs[2]) }},
	}
	for n, step := range steps {
		for i := busy; n > 0 && i < busy+quiet; i++ {
			if err := set(i, int64(n)); err != nil {
				t.Fatalf("%s: quiet Set: %v", step.name, err)
			}
		}
		if err := step.resize(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		check(step.name)
	}
	for i := 0; i < busy; i++ {
		if acked[i].Load() < 2 {
			t.Fatalf("writer key %s acknowledged only %d Sets (%d failed); the resizes ran without concurrent writes",
				key(i), acked[i].Load(), failed.Load())
		}
	}
}

// TestRejoinReusesSlotIndex drains a server out and adds it back: the
// rejoin must revive the same stable slot index (so its metric series
// resumes rather than forking) and count as a rejoin.
func TestRejoinReusesSlotIndex(t *testing.T) {
	leakcheck.Check(t)
	addrs, _ := startServers(t, 4, 0)
	cl, err := NewClient(addrs, elasticOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ks := keys(30)
	seedKeys(t, cl, ks)

	const victim = 2
	var wasIdx int
	found := false
	for _, st := range cl.ServerStates() {
		if st.Addr == addrs[victim] {
			wasIdx, found = st.Index, true
		}
	}
	if !found {
		t.Fatalf("victim %s not in ServerStates", addrs[victim])
	}
	if err := cl.RemoveServer(addrs[victim]); err != nil {
		t.Fatal(err)
	}
	if !cl.WaitSettled(10 * time.Second) {
		t.Fatalf("drain never settled; view %v", cl.View())
	}
	if err := cl.AddServer(addrs[victim]); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if !cl.WaitSettled(10 * time.Second) {
		t.Fatalf("rejoin never settled; view %v", cl.View())
	}
	for _, st := range cl.ServerStates() {
		if st.Addr == addrs[victim] && st.Index != wasIdx {
			t.Fatalf("rejoined server got index %d, want its old index %d", st.Index, wasIdx)
		}
	}
	if cl.Topology().Rejoins.Load() != 1 {
		t.Fatalf("rejoin not counted:%s", scalars(cl))
	}
	items, _, err := cl.GetMulti(ks)
	if err != nil || len(items) != len(ks) {
		t.Fatalf("read after rejoin: %d/%d items, err %v", len(items), len(ks), err)
	}
}

// TestSetServersDiffsMembership drives membership through the config
// entry point (what file watch and SIGHUP use): one SetServers call
// that both adds and removes, then a rejected reload that must leave
// the tier untouched.
func TestSetServersDiffsMembership(t *testing.T) {
	leakcheck.Check(t)
	addrs, _ := startServers(t, 5, 0)
	cl, err := NewClient(addrs[:4], elasticOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ks := keys(30)
	seedKeys(t, cl, ks)

	// Swap addrs[0] for addrs[4] in one reload.
	want := []string{addrs[1], addrs[2], addrs[3], addrs[4]}
	if err := cl.SetServers(want); err != nil {
		t.Fatalf("SetServers: %v", err)
	}
	if !cl.WaitSettled(10 * time.Second) {
		t.Fatalf("reload never settled; view %v", cl.View())
	}
	got := map[string]bool{}
	for _, st := range cl.ServerStates() {
		got[st.Addr] = true
	}
	for _, addr := range want {
		if !got[addr] {
			t.Fatalf("server %s missing after reload: %v", addr, got)
		}
	}
	if got[addrs[0]] {
		t.Fatalf("server %s still a member after reload dropped it", addrs[0])
	}
	topo := cl.Topology()
	if topo.Reloads.Load() != 1 || topo.Joins.Load() != 1 || topo.Drains.Load() != 1 {
		t.Fatalf("reload counters wrong:%s", scalars(cl))
	}

	// A bad list (duplicate entry) is rejected wholesale; membership
	// and counters show the error, not a partial apply.
	if err := cl.SetServers([]string{addrs[1], addrs[1]}); err == nil {
		t.Fatal("duplicate server list accepted")
	}
	if topo.ReloadErrors.Load() != 1 {
		t.Fatalf("rejected reload not counted:%s", scalars(cl))
	}
	if n := len(cl.ServerStates()); n != 4 {
		t.Fatalf("membership changed by a rejected reload: %d members", n)
	}
	items, _, err := cl.GetMulti(ks)
	if err != nil || len(items) != len(ks) {
		t.Fatalf("read after reload: %d/%d items, err %v", len(items), len(ks), err)
	}
}

// TestAddServerDialFailureLeavesIndexesAligned pins down the rollback
// hazard of a failed join: dialing a dead address must leave zero
// trace in the membership machine, and — the part that used to break —
// the next successful add must land the machine, ring, and slot table
// on the same index. A burned machine index with no matching ring/slot
// growth would make every later membership change address the wrong
// server.
func TestAddServerDialFailureLeavesIndexesAligned(t *testing.T) {
	leakcheck.Check(t)
	addrs, _ := startServers(t, 3, 0)
	cl, err := NewClient(addrs[:2], elasticOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ks := keys(40)
	seedKeys(t, cl, ks)

	// Port 1 on loopback: connection refused, immediately.
	const dead = "127.0.0.1:1"
	if err := cl.AddServer(dead); err == nil {
		t.Fatalf("AddServer(%s) succeeded against a dead port", dead)
	}
	if _, ok := cl.View().Find(dead); ok {
		t.Fatalf("failed add left a member behind: %v", cl.View())
	}

	if err := cl.AddServer(addrs[2]); err != nil {
		t.Fatalf("AddServer after failed add: %v", err)
	}
	mem, ok := cl.View().Find(addrs[2])
	if !ok {
		t.Fatalf("added member missing from view %v", cl.View())
	}
	tr := cl.cur.Load()
	if mem.Index >= len(tr.slots) || tr.slots[mem.Index].addr != addrs[2] {
		t.Fatalf("machine index %d does not address the new server's slot (slots %d)",
			mem.Index, len(tr.slots))
	}
	// Removing through that index must drain the server we just added,
	// not a bystander, and the tier must keep serving whole reads.
	if err := cl.RemoveServer(addrs[2]); err != nil {
		t.Fatalf("RemoveServer: %v", err)
	}
	if !cl.WaitSettled(10 * time.Second) {
		t.Fatalf("drain never settled; view %v", cl.View())
	}
	items, _, err := cl.GetMulti(ks)
	if err != nil || len(items) != len(ks) {
		t.Fatalf("read after add/remove cycle: %d/%d items, err %v", len(items), len(ks), err)
	}
}

// TestRemoveServerKeepsOneNonDraining pins down the last-server guard:
// on a 2-server tier, removing the second server while the first is
// still draining must be refused — draining members are leaving and
// cannot count as the tier's survivor. (Counting them used to let both
// drains through, retiring to an empty ring and panicking every read.)
func TestRemoveServerKeepsOneNonDraining(t *testing.T) {
	leakcheck.Check(t)
	addrs, _ := startServers(t, 2, 0)
	cl, err := NewClient(addrs, elasticOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ks := keys(30)
	seedKeys(t, cl, ks)

	if err := cl.RemoveServer(addrs[0]); err != nil {
		t.Fatal(err)
	}
	if err := cl.RemoveServer(addrs[1]); err == nil {
		t.Fatal("removed the last non-draining server")
	}
	if !cl.WaitSettled(10 * time.Second) {
		t.Fatalf("drain never settled; view %v", cl.View())
	}
	items, _, err := cl.GetMulti(ks)
	if err != nil || len(items) != len(ks) {
		t.Fatalf("read after drain: %d/%d items, err %v", len(items), len(ks), err)
	}
}

// TestTierSnapshotFrozenAcrossResize pins down the snapshot-immutability
// contract: a tier captured before a resize must keep resolving
// replicas inside its own slot table even after newer epochs grow the
// server space.
func TestTierSnapshotFrozenAcrossResize(t *testing.T) {
	leakcheck.Check(t)
	addrs, _ := startServers(t, 6, 0)
	cl, err := NewClient(addrs[:3], elasticOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	old := cl.cur.Load()
	nSlots := len(old.slots)

	// Grow the tier past the old snapshot's slot table.
	for _, addr := range addrs[3:] {
		if err := cl.AddServer(addr); err != nil {
			t.Fatalf("AddServer(%s): %v", addr, err)
		}
	}
	for i := 0; i < 2000; i++ {
		set := old.placement.Replicas(keyID(fmt.Sprintf("frozen:%05d", i)), nil)
		for _, s := range set {
			if s < 0 || s >= nSlots {
				t.Fatalf("placement produced index %d outside the snapshot's %d slots: %v", s, nSlots, set)
			}
		}
	}
}

// TestResizeStormChaos is the headline elasticity scenario: a seeded
// storm of membership churn (joins, drains, rejoins) interleaved with
// server crashes and recoveries, under continuous multi-get load from
// several goroutines. Zero idempotent reads may fail or come back
// short, the tier must settle cleanly afterwards, and — via leakcheck
// — the whole episode must leave no goroutine behind.
func TestResizeStormChaos(t *testing.T) {
	leakcheck.Check(t)
	const (
		pool    = 7 // total addressable servers
		members = 5 // initially in the tier
	)
	profiles := make(map[int]chaos.Profile, pool)
	for i := 0; i < pool; i++ {
		profiles[i] = chaos.Profile{} // clean when alive; Kill/Revive only
	}
	addrs, _, injectors := startChaosServers(t, pool, profiles)
	cl, err := NewClient(addrs[:members], elasticOpts(
		WithFailureCooldown(50*time.Millisecond),
		WithTimeout(500*time.Millisecond),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	ks := keys(50)
	seedKeys(t, cl, ks)

	script := chaos.ResizeStorm(chaos.StormConfig{
		Seed:       11,
		Servers:    pool,
		Members:    members,
		MinMembers: 3,
		MaxKilled:  1,
		Steps:      18,
	})
	readers := startReaders(cl, ks, 3)
	kills := 0
	for n, step := range script {
		switch step.Op {
		case chaos.StormAdd:
			// A re-add is only legal once the server's previous drain
			// has finished (the state machine refuses draining members),
			// so retry over a short deadline — exactly what an operator
			// script would do.
			deadline := time.Now().Add(10 * time.Second)
			for {
				err := cl.AddServer(addrs[step.Target])
				if err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("storm step %d: add %s never succeeded: %v", n, addrs[step.Target], err)
				}
				time.Sleep(20 * time.Millisecond)
			}
		case chaos.StormRemove:
			if err := cl.RemoveServer(addrs[step.Target]); err != nil {
				t.Fatalf("storm step %d: remove %s: %v", n, addrs[step.Target], err)
			}
		case chaos.StormKill:
			injectors[step.Target].Kill()
			kills++
		case chaos.StormRevive:
			injectors[step.Target].Revive()
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !cl.WaitSettled(15 * time.Second) {
		t.Fatalf("tier never settled after the storm; view %v, counters%s",
			cl.View(), scalars(cl))
	}
	readers.finish(t)

	if kills == 0 {
		t.Fatal("storm script killed no server; scenario proves nothing")
	}
	topo := cl.Topology()
	if topo.Joins.Load() == 0 || topo.Drains.Load() == 0 {
		t.Fatalf("storm exercised no membership churn:%s", scalars(cl))
	}
	if topo.Drains.Load() != topo.DrainsCompleted.Load()+topo.DrainsForced.Load() {
		t.Fatalf("drains unaccounted for:%s", scalars(cl))
	}
	// The settled tier serves whole reads with every breaker closed
	// again (killed servers were all revived).
	deadline := time.Now().Add(5 * time.Second)
	for {
		allClosed := true
		for _, st := range cl.ServerStates() {
			if st.State != BreakerClosed {
				allClosed = false
			}
		}
		if allClosed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breakers never re-closed after the storm: %+v", cl.ServerStates())
		}
		if _, _, err := cl.GetMulti(ks); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	items, _, err := cl.GetMulti(ks)
	if err != nil || len(items) != len(ks) {
		t.Fatalf("post-storm read: %d/%d items, err %v", len(items), len(ks), err)
	}
}
