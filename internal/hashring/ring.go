// Package hashring implements consistent hashing with virtual nodes and
// the paper's Ranged Consistent Hashing (RCH) extension (§IV).
//
// Plain consistent hashing maps a key to the first server point
// encountered clockwise on a hash continuum. RCH generalizes this for
// replica placement: starting from the key's position, travel along the
// continuum gathering servers until enough *distinct* ones have been
// collected. The walk preserves the properties that make consistent
// hashing attractive — adding or removing a server only remaps keys in
// its arc, and the replica sets of an item change minimally — while
// guaranteeing the replicas land on distinct servers.
package hashring

import (
	"fmt"
	"slices"
	"sort"

	"rnb/internal/xhash"
)

// DefaultVirtualNodes is the number of points each server contributes to
// the continuum when not overridden. More virtual nodes smooth the load
// distribution at the cost of ring size.
const DefaultVirtualNodes = 128

type point struct {
	hash   uint64
	server int // index into servers
}

// Ring is a consistent-hashing continuum over a set of named servers.
// It is not safe for concurrent mutation; concurrent reads are safe.
// Construction mutates (New then AddServer); once a ring is handed to
// readers it must never change again.
//
//rnb:frozen-after-publish
type Ring struct {
	vnodes  int
	points  []point
	servers []string // by index; "" where no server is (removed, or a gap)
	nLive   int
}

// New returns an empty ring with the given number of virtual nodes per
// server. vnodes <= 0 selects DefaultVirtualNodes.
func New(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes}
}

// NewWithServers builds a ring containing n servers named "s0".."s{n-1}".
func NewWithServers(n, vnodes int) *Ring {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	return NewIndexed(vnodes, names)
}

// NewIndexed builds a ring whose server i is names[i]; an empty name
// leaves index i unoccupied. Callers that own a stable index space —
// the dynamic topology layer, one ring per membership epoch — place
// each server at its own index this way. A vnode's position depends
// only on the server's name, so a server covers the same arcs in every
// ring that holds it.
func NewIndexed(vnodes int, names []string) *Ring {
	r := New(vnodes)
	r.servers = append([]string(nil), names...)
	for i, name := range names {
		if name == "" {
			continue
		}
		r.nLive++
		for v := 0; v < r.vnodes; v++ {
			r.points = append(r.points, point{hash: xhash.StringUint64(name, uint64(v)), server: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// AddServer inserts a server into the continuum at the next index and
// returns that index. Adding a name already on the ring is an error.
func (r *Ring) AddServer(name string) (int, error) {
	if name == "" || slices.Contains(r.servers, name) {
		return 0, fmt.Errorf("hashring: server %q is empty or already present", name)
	}
	*r = *NewIndexed(r.vnodes, append(r.servers, name))
	return len(r.servers) - 1, nil
}

// RemoveServer removes a server's points from the continuum. The other
// servers keep their indices, so data structures keyed by index stay
// valid; the removed index stays unoccupied.
func (r *Ring) RemoveServer(name string) error {
	idx := slices.Index(r.servers, name)
	if name == "" || idx < 0 {
		return fmt.Errorf("hashring: server %q not present", name)
	}
	r.servers[idx] = ""
	r.nLive--
	kept := r.points[:0]
	for _, p := range r.points {
		if p.server != idx {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return nil
}

// NumServers returns the number of live servers.
func (r *Ring) NumServers() int { return r.nLive }

// ServerName returns the name of the server at an index ("" if none).
func (r *Ring) ServerName(idx int) string { return r.servers[idx] }

// Servers returns the names of all live servers in index order.
func (r *Ring) Servers() []string {
	out := make([]string, 0, r.nLive)
	for _, name := range r.servers {
		if name != "" {
			out = append(out, name)
		}
	}
	return out
}

// successor returns the index into points of the first point with
// hash >= h, wrapping to 0.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// Locate maps a string key to its primary server index.
func (r *Ring) Locate(key string) int {
	return r.LocateHash(xhash.String(key))
}

// LocateID maps a numeric item id to its primary server index.
func (r *Ring) LocateID(id uint64) int {
	return r.LocateHash(xhash.Uint64(id))
}

// LocateHash maps a precomputed key hash to its primary server index.
// It panics if the ring is empty.
func (r *Ring) LocateHash(h uint64) int {
	if len(r.points) == 0 {
		panic("hashring: Locate on empty ring")
	}
	return r.points[r.successor(h)].server
}

// LocateN implements Ranged Consistent Hashing for a string key: it
// returns the first n distinct servers encountered walking the continuum
// clockwise from the key's position. If n exceeds the number of live
// servers, all live servers are returned (in walk order).
func (r *Ring) LocateN(key string, n int, buf []int) []int {
	return r.LocateNHash(xhash.String(key), n, buf)
}

// LocateNID is LocateN for a numeric item id.
func (r *Ring) LocateNID(id uint64, n int, buf []int) []int {
	return r.LocateNHash(xhash.Uint64(id), n, buf)
}

// LocateNHash is the RCH walk for a precomputed hash. buf, if non-nil,
// is reused for the result to avoid allocation.
func (r *Ring) LocateNHash(h uint64, n int, buf []int) []int {
	if len(r.points) == 0 {
		panic("hashring: LocateN on empty ring")
	}
	if n > r.nLive {
		n = r.nLive
	}
	out := buf[:0]
	start := r.successor(h)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		s := r.points[(start+i)%len(r.points)].server
		dup := false
		for _, prev := range out {
			if prev == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}
