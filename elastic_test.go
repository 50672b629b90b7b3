package rnb

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"rnb/internal/leakcheck"
)

// TestDrainForcedAtIOTimeout pins the drain deadline to the client's I/O
// timeout: once a draining server has left every windowed epoch, a
// request still in flight on it holds the connection open for one
// WithTimeout and no longer. The janitor is driven with synthetic times;
// the hour-long window keeps the real one from retiring the epoch.
func TestDrainForcedAtIOTimeout(t *testing.T) {
	leakcheck.Check(t)
	const timeout = 300 * time.Millisecond
	addrs, _ := startServers(t, 3, 0)
	cl, err := NewClient(addrs, WithTimeout(timeout), WithTransitionWindow(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	mem, _ := cl.View().Find(addrs[1])
	s := cl.cur.Load().slots[mem.Index]
	s.inflight.Add(1) // a request the drain must wait for
	defer s.inflight.Add(-1)
	if err := cl.RemoveServer(addrs[1]); err != nil {
		t.Fatal(err)
	}

	tick := func(now time.Time) (forceAt time.Time) {
		cl.janitorTick(now)
		cl.topoMu.Lock()
		defer cl.topoMu.Unlock()
		return s.forceAt
	}
	retired := time.Now().Add(2 * time.Hour)
	forceAt := tick(retired)
	if want := retired.Add(timeout); !forceAt.Equal(want) {
		t.Fatalf("drain deadline %v after the epoch retired, want the I/O timeout %v", forceAt.Sub(retired), timeout)
	}
	tick(forceAt.Add(-time.Nanosecond))
	if s.closed.Load() {
		t.Fatal("connection closed before the I/O timeout, with a request in flight")
	}
	tick(forceAt)
	topo := cl.Topology()
	if !s.closed.Load() || topo.DrainsForced.Load() != 1 || topo.DrainsCompleted.Load() != 0 {
		t.Fatalf("at the deadline: closed %v, forced %d, completed %d; want a forced drain",
			s.closed.Load(), topo.DrainsForced.Load(), topo.DrainsCompleted.Load())
	}
}

// TestDrainRejoinKeepsPlacement pins the continuum across membership
// round trips: a server's virtual nodes depend only on its name, so a
// settled tier that drains a mid-index server and takes it back — or
// adds a new server and drains it again — must place every id exactly
// as it did before.
func TestDrainRejoinKeepsPlacement(t *testing.T) {
	leakcheck.Check(t)
	addrs, _ := startServers(t, 6, 0)
	cl, err := NewClient(addrs[:5], elasticOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	placement := func() [][]int {
		out := make([][]int, 10000)
		p := cl.cur.Load().placement
		for i := range out {
			out[i] = p.Replicas(keyID(fmt.Sprintf("id:%05d", i)), nil)
		}
		return out
	}
	settle := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if !cl.WaitSettled(10 * time.Second) {
			t.Fatalf("%s never settled; view %v", what, cl.View())
		}
	}
	check := func(what string, want [][]int) {
		t.Helper()
		for i, got := range placement() {
			if !slices.Equal(got, want[i]) {
				t.Fatalf("after %s: id %d placed on %v, was %v", what, i, got, want[i])
			}
		}
	}

	before := placement()
	settle("drain", cl.RemoveServer(addrs[2]))
	settle("rejoin", cl.AddServer(addrs[2]))
	check("drain and rejoin", before)
	settle("add", cl.AddServer(addrs[5]))
	settle("drain of the added server", cl.RemoveServer(addrs[5]))
	check("add and drain", before)
}
