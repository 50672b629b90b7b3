// Package good holds the copy-on-write patterns frozen must accept:
// constructor mutation before publish, clone-then-mutate-then-
// republish, plain reads of published snapshots, and loops that build
// a fresh value every iteration.
package good

import "sync/atomic"

// view is a published-immutable snapshot.
//
//rnb:frozen-after-publish
type view struct {
	count int
	names map[string]int
}

type keeper struct {
	cur atomic.Pointer[view]
}

// newView mutates freely before the value ever escapes.
func newView(n int) *view {
	v := &view{names: map[string]int{}}
	v.count = n
	v.names["init"] = n
	return v
}

// clone returns a private copy the caller may edit.
func clone(v *view) *view {
	c := &view{count: v.count, names: map[string]int{}}
	for k, val := range v.names {
		c.names[k] = val
	}
	return c
}

// swap is the sanctioned update path: clone the published value,
// mutate the clone, republish.
func (k *keeper) swap(delta int) {
	old := k.cur.Load()
	next := clone(old) // a call returning a frozen type hands back a fresh value
	next.count += delta
	next.names["last"] = delta
	k.cur.Store(next)
}

// read only reads: published values are for reading.
func (k *keeper) read() int {
	v := k.cur.Load()
	return v.count + len(v.names)
}

// rebuildLoop publishes a fresh value every iteration; the write at
// the top of the body always touches the new one, never the one
// published at the bottom.
func (k *keeper) rebuildLoop(rounds int) {
	for i := 0; i < rounds; i++ {
		v := &view{names: map[string]int{}}
		v.count = i
		k.cur.Store(v)
	}
}

// sendOrKeep publishes in one select arm and mutates in the other: the
// arms are exclusive, so the write never touches the value sent.
func sendOrKeep(out chan *view, quit chan struct{}) *view {
	v := &view{}
	select {
	case out <- v:
		return nil
	case <-quit:
		v.count = 1
	}
	return v
}
