// Package xhash provides seeded 64-bit hashing and mixing helpers.
//
// RnB needs families of independent hash functions: one per declared
// replica when placing with "multiple hash functions" (paper §III-B), and
// a single well-mixed function for the ranged-consistent-hashing
// continuum (§IV). Everything here is deterministic and allocation-free,
// built from FNV-1a plus splitmix64 finalization, so simulations are
// reproducible run to run.
package xhash

import "encoding/binary"

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Mix64 is the splitmix64 finalizer: a cheap, high-quality bijective
// mixer on 64-bit values.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// String hashes s with FNV-1a and finalizes with Mix64.
func String(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return Mix64(h)
}

// Bytes hashes b with FNV-1a and finalizes with Mix64.
func Bytes(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return Mix64(h)
}

// Uint64 hashes a raw 64-bit value.
func Uint64(v uint64) uint64 { return Mix64(v) }

// Seeded hashes v under the hash function identified by seed. Distinct
// seeds give (empirically) independent functions; this is what maps an
// item to the server of its i-th replica under multi-hash placement.
func Seeded(seed, v uint64) uint64 {
	return Mix64(v ^ Mix64(seed^0xa0761d6478bd642f))
}

// Combine folds two hashes into one, order-dependently.
func Combine(a, b uint64) uint64 {
	return Mix64(a*0x9e3779b97f4a7c15 ^ b)
}

// StringUint64 hashes the concatenation of s and the big-endian bytes of
// v, used for virtual-node labels like "server-3#17".
func StringUint64(s string, v uint64) uint64 {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	for _, c := range buf {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return Mix64(h)
}
