// Package memcache implements a memcached-compatible key-value store —
// server and client — over the classic text protocol.
//
// This is the proof-of-concept substrate of paper §IV and the
// device-under-test for the micro-benchmarks of Appendix A (figs.
// 13–14): a real TCP server whose per-transaction parsing/syscall cost
// dominates per-item cost for small values, which is precisely the
// regime where the multi-get hole appears and RnB pays off.
//
// Supported commands: get/gets (multi-key), set, add, replace, cas,
// delete, touch, flush_all, version, stats, quit. Expiration uses
// absolute/relative unix semantics like memcached (values <= 30 days
// are relative).
package memcache

import (
	"errors"
	"fmt"
	"strconv"
)

// Protocol limits, mirroring memcached's defaults.
const (
	MaxKeyLen   = 250
	MaxValueLen = 1 << 20 // 1 MiB
)

// Common protocol errors.
var (
	ErrCacheMiss   = errors.New("memcache: cache miss")
	ErrNotStored   = errors.New("memcache: item not stored")
	ErrCASConflict = errors.New("memcache: CAS conflict")
	ErrBadKey      = errors.New("memcache: invalid key")
	ErrTooLarge    = errors.New("memcache: value too large")
)

// Item is one stored object.
//
// Items returned by a get share memory with the rest of their reply:
// one Item array and one value arena per reply (DESIGN.md "Reply
// memory"), and a Key that is the string the caller asked with. Each
// still behaves as a value of its own — Value is capacity-clipped, so
// append copies rather than running into a neighbour, and overwriting
// the request's key slice afterwards changes nothing — but retaining
// one item retains its whole reply. A caller that caches single items
// long-term should copy them out.
type Item struct {
	Key   string
	Value []byte
	Flags uint32
	// Expiration in memcached semantics: 0 = never, <= 30 days =
	// relative seconds, otherwise absolute unix time.
	Expiration int32
	// CAS is the compare-and-swap token returned by gets.
	CAS uint64
}

// validKey enforces memcached's key rules: 1..250 bytes, no spaces or
// control characters.
func validKey(key string) bool {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c <= ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// parseUint parses a decimal field of at most bits bits, rejecting
// junk. It takes the field as a string or as bytes borrowed from a read
// buffer — parsing in place avoids materializing a string per numeric
// field.
func parseUint[S string | []byte](s S, bits int) (uint64, error) {
	if len(s) == 0 {
		return 0, fmt.Errorf("memcache: bad number %q", s)
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("memcache: bad number %q", s)
		}
		d := uint64(c - '0')
		if v > (1<<64-1-d)/10 {
			return 0, fmt.Errorf("memcache: bad number %q", s)
		}
		v = v*10 + d
	}
	if bits < 64 && v >= 1<<uint(bits) {
		return 0, fmt.Errorf("memcache: bad number %q", s)
	}
	return v, nil
}

// parseInt32 parses a signed 32-bit decimal field (exptime can be -1).
func parseInt32(s string) (int32, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("memcache: bad number %q", s)
	}
	return int32(v), nil
}
