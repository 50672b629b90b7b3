// Package topology tracks the membership of an RnB server tier as it
// changes under load: which servers exist, what lifecycle state each is
// in, and an epoch counter that stamps every change.
//
// The paper assumes a fixed server set; a production tier does not.
// Elasticity is modeled as a two-phase state machine per server:
//
//	joining ──activate──► active ──drain──► draining ──finish──► gone
//
// A *joining* server is already dialed and appears in the newest
// placement epoch, but its warm handoff (tracked hot keys copied onto
// it) has not returned; the client activates it as soon as it does. A
// *draining* server is the mirror image: it has left the newest
// placement epoch but still serves reads for the epochs that include
// it, until they retire and its in-flight requests finish.
// The Machine is the one allocator of server indices, and they are
// stable for its lifetime — a server that leaves keeps its index (state
// gone), and the same address rejoining revives that index — so data
// structures keyed by server index (rings, connections, breakers,
// metrics) never need re-indexing.
//
// Every successful transition increments the epoch. Consumers that
// cache a View can compare epochs to detect staleness cheaply.
package topology

import (
	"fmt"
	"sync"
)

// State is a server's position in the membership lifecycle.
type State uint8

const (
	// StateJoining: admitted to the newest placement epoch, its warm
	// handoff still running.
	StateJoining State = iota
	// StateActive: a full member.
	StateActive
	// StateDraining: removed from the newest placement epoch; still
	// serving reads for older epochs until they retire and its
	// in-flight requests complete.
	StateDraining
	// StateGone: fully departed; connections closed, index parked.
	StateGone
)

// String renders the state the way operators see it in stats output.
func (s State) String() string {
	switch s {
	case StateJoining:
		return "joining"
	case StateActive:
		return "active"
	case StateDraining:
		return "draining"
	case StateGone:
		return "gone"
	default:
		return "unknown"
	}
}

// Member is one server's membership record.
type Member struct {
	// Addr is the server's address (also its identity).
	Addr string
	// Index is the server's stable slot index.
	Index int
	// State is the lifecycle state.
	State State
}

// View is an immutable, epoch-stamped membership snapshot. Members is
// in index order and includes gone slots, so Members[i].Index == i.
//
//rnb:frozen-after-publish
type View struct {
	Epoch   uint64
	Members []Member
}

// Live returns the members that participate in the tier (everything
// but gone), in index order.
func (v View) Live() []Member {
	out := make([]Member, 0, len(v.Members))
	for _, m := range v.Members {
		if m.State != StateGone {
			out = append(out, m)
		}
	}
	return out
}

// Count returns the number of members in the given state.
func (v View) Count(s State) int {
	n := 0
	for _, m := range v.Members {
		if m.State == s {
			n++
		}
	}
	return n
}

// Find returns the member with the given address.
func (v View) Find(addr string) (Member, bool) {
	for _, m := range v.Members {
		if m.Addr == addr {
			return m, true
		}
	}
	return Member{}, false
}

// Machine is the membership state machine. All methods are safe for
// concurrent use; each successful transition increments the epoch.
type Machine struct {
	mu      sync.Mutex
	epoch   uint64
	members []Member
	index   map[string]int
}

// NewMachine builds a machine whose initial members are all active.
// The address list is validated with ParseServerList (trimmed, no
// duplicates, no empties).
func NewMachine(addrs []string) (*Machine, error) {
	clean, err := ParseServerList(addrs)
	if err != nil {
		return nil, err
	}
	m := &Machine{epoch: 1, index: make(map[string]int, len(clean))}
	for i, addr := range clean {
		m.members = append(m.members, Member{Addr: addr, Index: i, State: StateActive})
		m.index[addr] = i
	}
	return m, nil
}

// View returns the current epoch-stamped snapshot.
func (m *Machine) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked()
}

func (m *Machine) viewLocked() View {
	return View{Epoch: m.epoch, Members: append([]Member(nil), m.members...)}
}

// Epoch returns the current epoch.
func (m *Machine) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Join admits addr as a joining member. A brand-new address is
// assigned the next free index; a gone address is revived at its old
// index. Joining an address that is already joining, active, or
// draining is an error.
func (m *Machine) Join(addr string) (View, error) {
	clean, err := ParseServerList([]string{addr})
	if err != nil {
		return View{}, err
	}
	addr = clean[0]
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, ok := m.index[addr]; ok {
		if m.members[i].State != StateGone {
			return View{}, fmt.Errorf("topology: server %q is already %s", addr, m.members[i].State)
		}
		m.members[i].State = StateJoining
		m.epoch++
		return m.viewLocked(), nil
	}
	i := len(m.members)
	m.members = append(m.members, Member{Addr: addr, Index: i, State: StateJoining})
	m.index[addr] = i
	m.epoch++
	return m.viewLocked(), nil
}

// Activate promotes a joining member to active (its warm handoff
// returned).
func (m *Machine) Activate(addr string) (View, error) {
	return m.transition(addr, StateActive, StateJoining)
}

// Drain starts a member's departure: it leaves the newest placement
// epoch but keeps serving older epochs. Joining members may drain too
// (an aborted join).
func (m *Machine) Drain(addr string) (View, error) {
	return m.transition(addr, StateDraining, StateActive, StateJoining)
}

// Finish completes a drain: the member is gone and its index parked
// for a possible future rejoin.
func (m *Machine) Finish(addr string) (View, error) {
	return m.transition(addr, StateGone, StateDraining)
}

// transition moves addr to state to if its current state is one of
// from, bumping the epoch.
func (m *Machine) transition(addr string, to State, from ...State) (View, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i, ok := m.index[addr]
	if !ok {
		return View{}, fmt.Errorf("topology: unknown server %q", addr)
	}
	cur := m.members[i].State
	for _, f := range from {
		if cur == f {
			m.members[i].State = to
			m.epoch++
			return m.viewLocked(), nil
		}
	}
	return View{}, fmt.Errorf("topology: server %q is %s, cannot become %s", addr, cur, to)
}
