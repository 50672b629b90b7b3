package rnb

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"rnb/internal/leakcheck"
)

// TestDrainKeepsBoostsOnLiveServers: after a drain has fully retired,
// the slot of the drained server is closed but its index stays
// allocated. Boosted replicas must come only from the servers still in
// the tier — a walk over the dense index space would name the closed
// slot in write sets (every such Set fails with "server has left the
// tier") and could never reach the highest live index.
func TestDrainKeepsBoostsOnLiveServers(t *testing.T) {
	leakcheck.Check(t)
	addrs, _ := startServers(t, 5, 0)
	cl, err := NewClient(addrs, elasticOpts(WithAdaptiveReplication(AdaptiveConfig{MaxBoost: 2}))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	const drained = 1
	if err := cl.RemoveServer(addrs[drained]); err != nil {
		t.Fatal(err)
	}
	if !cl.WaitSettled(10 * time.Second) {
		t.Fatalf("drain never settled; view %v", cl.View())
	}

	ks := make([]string, 50)
	reachesLast := false
	for i := range ks {
		ks[i] = fmt.Sprintf("drained:%02d", i)
		set, _, _ := cl.cur.Load().writeSet(ks[i])
		if slices.Contains(set, drained) {
			t.Errorf("write set of %q names the drained server %d: %v", ks[i], drained, set)
		}
		reachesLast = reachesLast || slices.Contains(set[cl.Replicas():], len(addrs)-1)
	}
	if !reachesLast {
		t.Errorf("no boosted replica lands on the highest live index %d", len(addrs)-1)
	}
	failed := 0
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: []byte("v")}); err != nil {
			failed++
			t.Log(err)
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d Sets failed after the drain", failed, len(ks))
	}
	items, _, err := cl.GetMulti(ks)
	if err != nil || len(items) != len(ks) {
		t.Fatalf("read after drain: %d/%d items, err %v", len(items), len(ks), err)
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
