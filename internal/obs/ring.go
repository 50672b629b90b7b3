package obs

// ring is a fixed-capacity buffer that overwrites its oldest entry
// when full; a zero-capacity ring drops everything. It is not safe for
// concurrent use — the recorder that owns it holds a mutex around every
// call.
type ring[T any] struct {
	buf  []T
	head int // next write position
	n    int // entries held, saturating at len(buf)
}

func newRing[T any](size int) ring[T] { return ring[T]{buf: make([]T, size)} }

// push stores v, evicting the oldest entry once the ring is full.
func (r *ring[T]) push(v T) {
	if p := r.next(); p != nil {
		*p = v
	}
}

// next advances the ring and returns the slot the new entry goes in,
// still holding the entry it evicts (the zero value until the ring
// wraps), so a caller can reuse that entry's memory; nil when the ring
// has no capacity.
func (r *ring[T]) next() *T {
	if len(r.buf) == 0 {
		return nil
	}
	p := &r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	return p
}

// newest returns the i-th newest entry held, 0 the newest; i < r.n.
func (r *ring[T]) newest(i int) *T {
	return &r.buf[(r.head-1-i+len(r.buf))%len(r.buf)]
}

// find returns the newest entry held that match accepts, or nil.
func (r *ring[T]) find(match func(*T) bool) *T {
	for i := 0; i < r.n; i++ {
		if p := r.newest(i); match(p) {
			return p
		}
	}
	return nil
}

// newestFirst copies the held entries out, newest first.
func (r *ring[T]) newestFirst() []T {
	out := make([]T, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, *r.newest(i))
	}
	return out
}
