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
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// newestFirst copies the held entries out, newest first.
func (r *ring[T]) newestFirst() []T {
	out := make([]T, 0, r.n)
	for i := 1; i <= r.n; i++ {
		out = append(out, r.buf[(r.head-i+len(r.buf))%len(r.buf)])
	}
	return out
}
