// Package bad mutates //rnb:frozen-after-publish values after they
// escape: the Load-then-mutate shape, a direct write through a Load
// expression, a map-field write, mutation hidden behind a helper call
// (visible only through mutation summaries), and write-after-Store.
package bad

import "sync/atomic"

// snap is a lock-free snapshot: readers Load it and trust it never to
// change.
//
//rnb:frozen-after-publish
type snap struct {
	count int
	names map[string]int
}

type holder struct {
	cur atomic.Pointer[snap]
}

// loadThenMutate edits the very snapshot concurrent readers hold.
func loadThenMutate(h *holder) {
	s := h.cur.Load()
	s.count++ // want frozen "write to field count of a published bad.snap value"
}

// directExprWrite does it without even naming a variable.
func directExprWrite(h *holder) {
	h.cur.Load().count = 7 // want frozen "write to field count of a published bad.snap value"
}

// mapFieldWrite mutates shared state through a map field — the write
// goes through the element, but the snapshot is what changed.
func mapFieldWrite(h *holder) {
	s := h.cur.Load()
	s.names["x"] = 1 // want frozen "write to field names of a published bad.snap value"
}

// reset writes through its parameter; calling it with a published
// value is the violation, at the call site.
func reset(s *snap) {
	s.count = 0
}

func viaHelper(h *holder) {
	s := h.cur.Load()
	reset(s) // want frozen "mutates a published bad.snap value"
}

// publishThenWrite builds a fresh snapshot (fine), stores it, then
// keeps writing through the old alias.
func publishThenWrite(h *holder) {
	s := &snap{names: map[string]int{}}
	s.count = 1 // fresh: mutation is the point
	h.cur.Store(s)
	s.count = 2 // want frozen "write to field count of a published bad.snap value"
}

// publishInSelect hands the snapshot to a receiver from inside a
// select arm; whichever arm ran, the write after the select may race
// with that receiver.
func publishInSelect(out chan *snap, quit chan struct{}) {
	s := &snap{}
	select {
	case out <- s:
	case <-quit:
	}
	s.count = 1 // want frozen "write to field count of a published bad.snap value"
}

// publishAtLoopBottom writes at the top of the body and publishes at
// the bottom: from the second iteration on, the write lands on the
// value the previous iteration published.
func publishAtLoopBottom(h *holder, rounds int) {
	s := &snap{}
	for i := 0; i < rounds; i++ {
		s.count = i // want frozen "write to field count of a published bad.snap value"
		h.cur.Store(s)
	}
}
