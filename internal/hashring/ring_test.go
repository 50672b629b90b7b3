package hashring

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestAddRemoveServer(t *testing.T) {
	r := New(16)
	if _, err := r.AddServer("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddServer("a"); err == nil {
		t.Fatal("duplicate AddServer accepted")
	}
	if _, err := r.AddServer("b"); err != nil {
		t.Fatal(err)
	}
	if r.NumServers() != 2 {
		t.Fatalf("NumServers = %d, want 2", r.NumServers())
	}
	if err := r.RemoveServer("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveServer("a"); err == nil {
		t.Fatal("double RemoveServer accepted")
	}
	if err := r.RemoveServer("zzz"); err == nil {
		t.Fatal("RemoveServer of unknown accepted")
	}
	if r.NumServers() != 1 {
		t.Fatalf("NumServers = %d, want 1", r.NumServers())
	}
	if got := r.Servers(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Servers = %v, want [b]", got)
	}
}

func TestLocateEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Locate on empty ring did not panic")
		}
	}()
	New(8).Locate("k")
}

func TestLocateDeterministic(t *testing.T) {
	r := NewWithServers(8, 64)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key-%d", i)
		if r.Locate(k) != r.Locate(k) {
			t.Fatal("Locate not deterministic")
		}
	}
}

func TestLocateOnlyRemapsRemovedArc(t *testing.T) {
	// Consistency property: removing one server must only move keys that
	// previously mapped to it.
	r := NewWithServers(10, 64)
	before := make(map[string]int)
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("key-%d", i)
		before[k] = r.Locate(k)
	}
	victim := r.ServerName(3)
	if err := r.RemoveServer(victim); err != nil {
		t.Fatal(err)
	}
	for k, old := range before {
		now := r.Locate(k)
		if old != 3 && now != old {
			t.Fatalf("key %s moved from s%d to s%d though s3 was removed", k, old, now)
		}
		if old == 3 && now == 3 {
			t.Fatalf("key %s still maps to removed server", k)
		}
	}
}

func TestBalance(t *testing.T) {
	// With enough virtual nodes the load per server should be within a
	// reasonable band of the mean.
	const servers, keys = 16, 32000
	r := NewWithServers(servers, 128)
	counts := make([]int, servers)
	for i := 0; i < keys; i++ {
		counts[r.LocateID(uint64(i))]++
	}
	mean := keys / servers
	for s, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Fatalf("server %d holds %d keys, mean %d: imbalanced", s, c, mean)
		}
	}
}

func TestLocateNDistinct(t *testing.T) {
	r := NewWithServers(16, 64)
	var buf []int
	for i := 0; i < 500; i++ {
		buf = r.LocateNID(uint64(i), 5, buf)
		if len(buf) != 5 {
			t.Fatalf("LocateN returned %d servers, want 5", len(buf))
		}
		seen := map[int]bool{}
		for _, s := range buf {
			if seen[s] {
				t.Fatalf("duplicate server %d in replica set %v", s, buf)
			}
			seen[s] = true
		}
	}
}

func TestLocateNFirstIsLocate(t *testing.T) {
	r := NewWithServers(12, 64)
	for i := 0; i < 300; i++ {
		set := r.LocateNID(uint64(i), 4, nil)
		if set[0] != r.LocateID(uint64(i)) {
			t.Fatalf("LocateN[0]=%d != Locate=%d", set[0], r.LocateID(uint64(i)))
		}
	}
}

func TestLocateNClampsToLiveServers(t *testing.T) {
	r := NewWithServers(3, 32)
	set := r.LocateNID(7, 10, nil)
	if len(set) != 3 {
		t.Fatalf("LocateN returned %d servers, want all 3", len(set))
	}
}

func TestLocateNPrefixStable(t *testing.T) {
	// RCH property: the n-replica set is a prefix of the (n+1)-replica
	// set for the same key — growing the replication level never moves
	// existing replicas.
	r := NewWithServers(16, 64)
	for i := 0; i < 200; i++ {
		small := r.LocateNID(uint64(i), 3, nil)
		big := r.LocateNID(uint64(i), 5, nil)
		for j, s := range small {
			if big[j] != s {
				t.Fatalf("item %d: 3-set %v not a prefix of 5-set %v", i, small, big)
			}
		}
	}
}

func TestLocateNReplicaSetStableUnderUnrelatedRemoval(t *testing.T) {
	// Removing a server should keep the *surviving* replicas of each item
	// in the same relative order (minimal disruption).
	r := NewWithServers(10, 64)
	type entry struct{ set []int }
	items := 500
	before := make([]entry, items)
	for i := range before {
		before[i].set = append([]int(nil), r.LocateNID(uint64(i), 3, nil)...)
	}
	if err := r.RemoveServer(r.ServerName(5)); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		after := r.LocateNID(uint64(i), 3, nil)
		// Each surviving server from the old set must still appear, and in
		// the same relative order.
		j := 0
		for _, old := range before[i].set {
			if old == 5 {
				continue
			}
			for j < len(after) && after[j] != old {
				j++
			}
			if j == len(after) {
				t.Fatalf("item %d: surviving replica s%d vanished (%v -> %v)",
					i, old, before[i].set, after)
			}
		}
	}
}

func TestVnodeDefault(t *testing.T) {
	r := New(0)
	if r.vnodes != DefaultVirtualNodes {
		t.Fatalf("vnodes = %d, want default %d", r.vnodes, DefaultVirtualNodes)
	}
}

func TestQuickLocateNLenAndDistinct(t *testing.T) {
	r := NewWithServers(9, 32)
	f := func(id uint64, nRaw uint8) bool {
		n := int(nRaw%12) + 1
		set := r.LocateNID(id, n, nil)
		want := n
		if want > 9 {
			want = 9
		}
		if len(set) != want {
			return false
		}
		seen := map[int]bool{}
		for _, s := range set {
			if seen[s] {
				return false
			}
			seen[s] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNewIndexedMatchesAddRemove pins the per-epoch ring the elastic
// client builds: servers at the given indices, gaps unoccupied, and the
// same continuum as a ring grown by AddServer and shrunk by
// RemoveServer over the same names.
func TestNewIndexedMatchesAddRemove(t *testing.T) {
	grown := New(16)
	for _, name := range []string{"a", "b", "c", "d"} {
		grown.AddServer(name)
	}
	if err := grown.RemoveServer("b"); err != nil {
		t.Fatal(err)
	}
	indexed := NewIndexed(16, []string{"a", "", "c", "d"})
	if indexed.NumServers() != 3 || indexed.ServerName(2) != "c" || indexed.ServerName(1) != "" {
		t.Fatalf("indexed ring: %d servers, %v", indexed.NumServers(), indexed.Servers())
	}
	for i := uint64(0); i < 2000; i++ {
		got, want := indexed.LocateNID(i, 2, nil), grown.LocateNID(i, 2, nil)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("item %d: indexed ring %v, grown ring %v", i, got, want)
		}
		if got[0] == 1 || got[1] == 1 {
			t.Fatalf("item %d placed on the unoccupied index: %v", i, got)
		}
	}
	if _, err := grown.AddServer("b"); err != nil {
		t.Fatalf("re-adding a removed name: %v", err)
	}
	if _, err := grown.AddServer(""); err == nil {
		t.Fatal("empty name accepted")
	}
}

func BenchmarkLocate(b *testing.B) {
	r := NewWithServers(64, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.LocateID(uint64(i))
	}
}

func BenchmarkLocateN4(b *testing.B) {
	r := NewWithServers(64, 128)
	var buf []int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.LocateNID(uint64(i), 4, buf)
	}
}
