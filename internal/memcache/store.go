package memcache

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"rnb/internal/lru"
)

// Store is the server-side storage engine: one byte-budgeted LRU map
// under one lock, as the paper's servers (§III-C-1) and the simulator
// keep it. Entry cost is the stored value size plus a fixed per-entry
// overhead, mirroring how memcached accounts slab memory. Pinning
// support is exposed so an RnB deployment can pin distinguished copies;
// a replica is then admitted against the whole server's room beside
// them.
//
// A write keeps none of the memory it is handed: it rules first
// (presence, CAS token, capacity) and then copies what it stores, once
// (keep). So a server connection hands the store views of its read
// memory (keyView) for every verb, and a refused write costs nothing.
type Store struct {
	mu    sync.Mutex // guards cache and cas, and every verb's verdict with its store
	cache *lru.Cache[string, *Item]
	cas   uint64       // the last CAS token issued
	nowFn func() int64 // unix seconds; replaceable for tests
}

// entryOverhead approximates per-item metadata cost in bytes.
const entryOverhead = 56

// NewStore builds a store with the given total capacity in bytes.
// capacity <= 0 means effectively unbounded.
func NewStore(capacity int64) *Store {
	if capacity <= 0 {
		capacity = 1 << 62
	}
	return &Store{
		cache: lru.New[string, *Item](capacity),
		nowFn: func() int64 { return time.Now().Unix() },
	}
}

// SetClock replaces the store's time source (tests).
func (s *Store) SetClock(now func() int64) { s.nowFn = now }

// expired reports whether it has lapsed at unix second now.
func expired(it *Item, now int64) bool {
	if it.Expiration == 0 {
		return false
	}
	return int64(it.Expiration) <= now
}

// absExpiration converts memcached exptime semantics to absolute unix
// seconds: 0 stays 0 (never); values <= 30 days are relative.
func absExpiration(exp int32, now int64) int32 {
	const thirtyDays = 60 * 60 * 24 * 30
	if exp == 0 {
		return 0
	}
	if exp < 0 {
		// Negative exptime means "immediately expired" in memcached.
		return int32(now - 1)
	}
	if exp <= thirtyDays {
		return int32(now + int64(exp))
	}
	return exp
}

// Get returns the item for key, or ErrCacheMiss.
func (s *Store) Get(key string) (*Item, error) {
	it, _, err := s.get(key, s.nowFn(), false)
	return it, err
}

// get is the one lookup, judging expiry at unix second now: a
// transaction of many keys reads the store's clock once and passes it
// to each. With timed set it also returns the time spent waiting for
// the store lock, in nanoseconds — the store-contention share of a
// traced command; untimed lookups never read the wall clock.
func (s *Store) get(key string, now int64, timed bool) (*Item, int64, error) {
	if !validKey(key) {
		return nil, 0, ErrBadKey
	}
	var wait int64
	if timed {
		lockStart := time.Now()
		s.mu.Lock()
		wait = time.Since(lockStart).Nanoseconds()
	} else {
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	it, ok := s.cache.Get(key)
	if !ok {
		return nil, wait, ErrCacheMiss
	}
	if expired(it, now) {
		s.cache.Delete(key)
		return nil, wait, ErrCacheMiss
	}
	return it, wait, nil
}

// Set unconditionally stores the item (memcached "set").
func (s *Store) Set(it *Item) error {
	return s.SetPinned(it, false)
}

// SetPinned stores the item, optionally pinning it against eviction.
func (s *Store) SetPinned(it *Item, pinned bool) error {
	return s.write(it, storeAlways, pinned)
}

// Add stores only if the key is absent (memcached "add").
func (s *Store) Add(it *Item) error {
	return s.write(it, storeIfAbsent, false)
}

// Replace stores only if the key is present (memcached "replace").
func (s *Store) Replace(it *Item) error {
	return s.write(it, storeIfPresent, false)
}

// CompareAndSwap stores only if the resident CAS token matches
// (memcached "cas").
func (s *Store) CompareAndSwap(it *Item) error {
	return s.write(it, storeIfCAS, false)
}

// storeCond is what a whole-item write requires of the resident entry.
type storeCond uint8

const (
	storeAlways    storeCond = iota // set, setp
	storeIfAbsent                   // add
	storeIfPresent                  // replace
	storeIfCAS                      // cas: present, with it.CAS as its token
)

// write stores it when the resident entry meets cond (an expired entry
// counts as absent). The verdict and the store happen under one hold of
// the store lock: a set from another connection cannot land between
// them, so an add never replaces a value newer than the absence it saw —
// the property round 2's late write-backs rest on.
func (s *Store) write(it *Item, cond storeCond, pinned bool) error {
	if !validKey(it.Key) {
		return ErrBadKey
	}
	if len(it.Value) > MaxValueLen {
		return ErrTooLarge
	}
	now := s.nowFn()
	s.mu.Lock()
	defer s.mu.Unlock()
	if cond != storeAlways {
		existing, ok := s.cache.Peek(it.Key)
		live := ok && !expired(existing, now)
		switch {
		case cond == storeIfCAS && !live:
			return ErrCacheMiss
		case cond == storeIfCAS && existing.CAS != it.CAS:
			return ErrCASConflict
		case cond != storeIfCAS && live != (cond == storeIfPresent):
			return ErrNotStored
		}
	}
	return s.keep(it.Key, it.Value, nil, it.Flags, absExpiration(it.Expiration, now), pinned)
}

// keep is the last step of every write, under s.mu once the write's own
// verdict is in, and the store's one copy: the cache rules on capacity
// first (Admits, what Put would answer), so a refused write copies
// nothing, and an admitted one is copied into one buffer of its own —
// the value, head then tail, capacity-clipped, then the key, a view of
// the same buffer (keyView), which nothing writes again. The caller's
// key and value may be views of connection memory.
//
// A refused write also deletes the key's resident entry, as memcached
// unlinks the old item of a set it cannot allocate: the write's caller
// takes the refusal to mean the copy is gone (an RnB replica stays
// virtual), so the older value must not stay readable. Pinned entries
// are never refused, so a distinguished copy is not lost this way.
func (s *Store) keep(key string, head, tail []byte, flags uint32, exp int32, pinned bool) error {
	n := len(head) + len(tail)
	cost := int64(len(key) + n + entryOverhead)
	if !s.cache.Admits(key, cost, pinned) {
		s.cache.Delete(key)
		return ErrNotStored
	}
	buf := make([]byte, n+len(key))
	copy(buf[copy(buf, head):], tail)
	copy(buf[n:], key)
	s.cas++
	kept := &Item{Key: keyView(buf[n:]), Value: buf[:n:n], Flags: flags, Expiration: exp, CAS: s.cas}
	s.cache.Put(kept.Key, kept, cost, pinned)
	return nil
}

// Append concatenates data after an existing value (memcached
// "append"). Missing keys return ErrNotStored.
func (s *Store) Append(key string, data []byte) error {
	return s.concat(key, data, false)
}

// Prepend concatenates data before an existing value (memcached
// "prepend").
func (s *Store) Prepend(key string, data []byte) error {
	return s.concat(key, data, true)
}

func (s *Store) concat(key string, data []byte, front bool) error {
	if !validKey(key) {
		return ErrBadKey
	}
	now := s.nowFn()
	s.mu.Lock()
	defer s.mu.Unlock()
	existing, ok := s.cache.Peek(key)
	if !ok || expired(existing, now) {
		return ErrNotStored
	}
	if len(existing.Value)+len(data) > MaxValueLen {
		return ErrTooLarge
	}
	head, tail := existing.Value, data
	if front {
		head, tail = data, existing.Value
	}
	return s.keep(key, head, tail, existing.Flags, existing.Expiration, false)
}

// errNonNumeric is Increment's refusal of a value that is not a decimal
// number (text "CLIENT_ERROR ...").
var errNonNumeric = errors.New("memcache: cannot increment non-numeric value")

// Increment adjusts a decimal-uint64 value by delta (negative =
// decrement, clamped at zero like memcached). It returns the new
// value. Non-numeric values return an error; missing keys return
// ErrCacheMiss.
func (s *Store) Increment(key string, delta int64) (uint64, error) {
	if !validKey(key) {
		return 0, ErrBadKey
	}
	now := s.nowFn()
	s.mu.Lock()
	defer s.mu.Unlock()
	existing, ok := s.cache.Peek(key)
	if !ok || expired(existing, now) {
		return 0, ErrCacheMiss
	}
	cur, err := parseUint(existing.Value, 64)
	if err != nil {
		return 0, errNonNumeric
	}
	var next uint64
	if delta >= 0 {
		next = cur + uint64(delta) // wraps like memcached on overflow
	} else {
		d := uint64(-delta)
		if d > cur {
			next = 0 // clamped, like memcached decr
		} else {
			next = cur - d
		}
	}
	var digits [20]byte
	if err := s.keep(key, strconv.AppendUint(digits[:0], next, 10), nil, existing.Flags, existing.Expiration, false); err != nil {
		return 0, err
	}
	return next, nil
}

// Delete removes key, or returns ErrCacheMiss.
func (s *Store) Delete(key string) error {
	if !validKey(key) {
		return ErrBadKey
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.cache.Delete(key) {
		return ErrCacheMiss
	}
	return nil
}

// Touch updates an item's expiration, or returns ErrCacheMiss.
func (s *Store) Touch(key string, exp int32) error {
	if !validKey(key) {
		return ErrBadKey
	}
	now := s.nowFn()
	s.mu.Lock()
	defer s.mu.Unlock()
	it, ok := s.cache.Get(key)
	if !ok || expired(it, now) {
		return ErrCacheMiss
	}
	it.Expiration = absExpiration(exp, now)
	return nil
}

// FlushAll removes every item.
func (s *Store) FlushAll() {
	s.mu.Lock()
	s.cache = lru.New[string, *Item](s.cache.Capacity())
	s.mu.Unlock()
}

// Len returns the number of resident items (expired-but-unreaped
// included).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Len()
}

// Bytes returns total resident cost in bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Cost()
}

// Evictions returns the total capacity evictions.
func (s *Store) Evictions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.Evictions()
}
