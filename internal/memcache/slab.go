package memcache

import "bufio"

// replySlab is the memory one get reply is decoded into, shared by both
// codecs so that a k-item reply costs a constant number of allocations
// instead of three per hit: one []Item sized by the request (or none,
// when the caller handed the request a window of its own array — see
// SendGet), key strings borrowed from the request itself, and values
// carved out of one arena. Nothing here reads a wire header: the caller
// has checked a length against the protocol's caps before asking for
// memory, and the arena is sized only by bytes that have already
// arrived.
type replySlab struct {
	keys  []string // the request's keys, in request order
	items []Item   // the hits so far, in reply order; starts as the request's window, if any
	arena []byte   // the unused rest of the current value arena
	cur   int      // text: the first request key not answered yet
}

// find returns the index of the request key a text hit answers, or -1.
// A server answers in request order and skips misses, so the search
// starts where the last hit left off; a key that is not ahead of the
// cursor (duplicated, out of order, never asked for) is not found and
// gets a string of its own.
func (s *replySlab) find(key []byte) int {
	for i := s.cur; i < len(s.keys); i++ {
		if s.keys[i] == string(key) {
			s.cur = i + 1
			return i
		}
	}
	return -1
}

// add appends the next hit and returns it, valid until the next add.
// Its Key is the request's own string when keys[guess] is the key the
// server named, and a copy of key otherwise.
func (s *replySlab) add(guess int, key []byte) *Item {
	if s.items == nil {
		s.items = make([]Item, 0, len(s.keys))
	}
	s.items = append(s.items, Item{}) // reallocates only when the reply outruns the request (never into a neighbouring window)
	it := &s.items[len(s.items)-1]
	if guess >= 0 && s.keys[guess] == string(key) {
		it.Key = s.keys[guess]
	} else {
		it.Key = string(key)
	}
	return it
}

// block returns n+trailer bytes to read the next hit into, keeping the
// first n reserved: the trailer (the text wire's CRLF) is handed out
// again as the start of the next block, so the caller clips what it
// keeps to n. When the arena is spent, a new one is sized for the keys
// still unanswered at this hit's size, but never beyond the bytes the
// reader holds right now — so a reply of like-sized values gets exactly
// one arena, a single-key reply gets exactly its value, and a pipelined
// connection's buffered followers are not paid for. A hit larger than
// what is buffered gets a block of its own, as every hit used to.
func (s *replySlab) block(r *bufio.Reader, n, trailer int) []byte {
	need := n + trailer
	if need > len(s.arena) {
		if need > r.Buffered() {
			return make([]byte, need)
		}
		left := max(len(s.keys)-len(s.items), 1) // a reply may outrun its request
		s.arena = make([]byte, min(left*need, r.Buffered()))
	}
	b := s.arena[:need:need]
	s.arena = s.arena[n:]
	return b
}
