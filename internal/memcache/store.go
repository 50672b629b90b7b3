package memcache

import (
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rnb/internal/lru"
	"rnb/internal/xhash"
)

const defaultShards = 16

// Store is the server-side storage engine: a sharded, byte-budgeted LRU
// map. Each shard owns an lru.Cache keyed by string; entry cost is the
// stored value size plus a fixed per-entry overhead, mirroring how
// memcached accounts slab memory. Pinning support is exposed so an
// RnB deployment can pin distinguished copies (§III-C-1).
type Store struct {
	shards []storeShard
	nowFn  func() int64  // unix seconds; replaceable for tests
	casSeq atomic.Uint64 // global CAS counter
}

type storeShard struct {
	mu    sync.Mutex
	cache *lru.Cache[string, *Item]
}

// entryOverhead approximates per-item metadata cost in bytes.
const entryOverhead = 56

// NewStore builds a store with the given total capacity in bytes,
// split over shards. capacity <= 0 means effectively unbounded.
func NewStore(capacity int64) *Store {
	if capacity <= 0 {
		capacity = 1 << 62
	}
	s := &Store{
		shards: make([]storeShard, defaultShards),
		nowFn:  func() int64 { return time.Now().Unix() },
	}
	per := capacity / defaultShards
	if per < 1 {
		per = 1
	}
	for i := range s.shards {
		s.shards[i].cache = lru.New[string, *Item](per)
	}
	return s
}

// SetClock replaces the store's time source (tests).
func (s *Store) SetClock(now func() int64) { s.nowFn = now }

func (s *Store) shard(key string) *storeShard {
	return &s.shards[xhash.String(key)%defaultShards]
}

func (s *Store) nextCAS() uint64 { return s.casSeq.Add(1) }

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

func itemCost(it *Item) int64 {
	return int64(len(it.Key) + len(it.Value) + entryOverhead)
}

// Get returns the item for key, or ErrCacheMiss.
func (s *Store) Get(key string) (*Item, error) {
	it, _, err := s.get(key, s.nowFn(), false)
	return it, err
}

// get is the one lookup, judging expiry at unix second now: a
// transaction of many keys reads the store's clock once and passes it
// to each. With timed set it also returns the time spent waiting for
// the shard lock, in nanoseconds — the store-contention share of a
// traced command; untimed lookups never read the wall clock.
func (s *Store) get(key string, now int64, timed bool) (*Item, int64, error) {
	if !validKey(key) {
		return nil, 0, ErrBadKey
	}
	sh := s.shard(key)
	var wait int64
	if timed {
		lockStart := time.Now()
		sh.mu.Lock()
		wait = time.Since(lockStart).Nanoseconds()
	} else {
		sh.mu.Lock()
	}
	defer sh.mu.Unlock()
	it, ok := sh.cache.Get(key)
	if !ok {
		return nil, wait, ErrCacheMiss
	}
	if expired(it, now) {
		sh.cache.Delete(key)
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
	if !validKey(it.Key) {
		return ErrBadKey
	}
	if len(it.Value) > MaxValueLen {
		return ErrTooLarge
	}
	stored := *it
	stored.Expiration = absExpiration(it.Expiration, s.nowFn())
	stored.CAS = s.nextCAS()
	sh := s.shard(it.Key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.cache.Put(it.Key, &stored, itemCost(&stored), pinned) {
		return ErrNotStored
	}
	return nil
}

// Add stores only if the key is absent (memcached "add").
func (s *Store) Add(it *Item) error {
	return s.setIf(it, false)
}

// Replace stores only if the key is present (memcached "replace").
func (s *Store) Replace(it *Item) error {
	return s.setIf(it, true)
}

// setIf stores it only when the key's presence (an expired entry counts
// as absent) is what the caller requires. The verdict and the store
// happen under one hold of the shard lock, as in CompareAndSwap: a set
// from another connection cannot land between them, so an add never
// replaces a value newer than the absence it saw — the property round
// 2's late write-backs rest on.
func (s *Store) setIf(it *Item, present bool) error {
	if !validKey(it.Key) {
		return ErrBadKey
	}
	if len(it.Value) > MaxValueLen {
		return ErrTooLarge
	}
	sh := s.shard(it.Key)
	now := s.nowFn()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	existing, ok := sh.cache.Peek(it.Key)
	if live := ok && !expired(existing, now); live != present {
		return ErrNotStored
	}
	stored := *it
	stored.Expiration = absExpiration(it.Expiration, now)
	stored.CAS = s.nextCAS()
	if !sh.cache.Put(it.Key, &stored, itemCost(&stored), false) {
		return ErrNotStored
	}
	return nil
}

// CompareAndSwap stores only if the resident CAS token matches
// (memcached "cas").
func (s *Store) CompareAndSwap(it *Item) error {
	if !validKey(it.Key) {
		return ErrBadKey
	}
	if len(it.Value) > MaxValueLen {
		return ErrTooLarge
	}
	sh := s.shard(it.Key)
	now := s.nowFn()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	existing, ok := sh.cache.Peek(it.Key)
	if !ok || expired(existing, now) {
		return ErrCacheMiss
	}
	if existing.CAS != it.CAS {
		return ErrCASConflict
	}
	stored := *it
	stored.Expiration = absExpiration(it.Expiration, now)
	stored.CAS = s.nextCAS()
	if !sh.cache.Put(it.Key, &stored, itemCost(&stored), false) {
		return ErrNotStored
	}
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
	sh := s.shard(key)
	now := s.nowFn()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	existing, ok := sh.cache.Peek(key)
	if !ok || expired(existing, now) {
		return ErrNotStored
	}
	if len(existing.Value)+len(data) > MaxValueLen {
		return ErrTooLarge
	}
	merged := make([]byte, 0, len(existing.Value)+len(data))
	if front {
		merged = append(append(merged, data...), existing.Value...)
	} else {
		merged = append(append(merged, existing.Value...), data...)
	}
	updated := *existing
	updated.Value = merged
	updated.CAS = s.nextCAS()
	if !sh.cache.Put(key, &updated, itemCost(&updated), false) {
		return ErrNotStored
	}
	return nil
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
	sh := s.shard(key)
	now := s.nowFn()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	existing, ok := sh.cache.Peek(key)
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
	updated := *existing
	updated.Value = []byte(strconv.FormatUint(next, 10))
	updated.CAS = s.nextCAS()
	if !sh.cache.Put(key, &updated, itemCost(&updated), false) {
		return 0, ErrNotStored
	}
	return next, nil
}

// Delete removes key, or returns ErrCacheMiss.
func (s *Store) Delete(key string) error {
	if !validKey(key) {
		return ErrBadKey
	}
	sh := s.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.cache.Delete(key) {
		return ErrCacheMiss
	}
	return nil
}

// Touch updates an item's expiration, or returns ErrCacheMiss.
func (s *Store) Touch(key string, exp int32) error {
	if !validKey(key) {
		return ErrBadKey
	}
	sh := s.shard(key)
	now := s.nowFn()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	it, ok := sh.cache.Get(key)
	if !ok || expired(it, now) {
		return ErrCacheMiss
	}
	it.Expiration = absExpiration(exp, now)
	return nil
}

// FlushAll removes every item.
func (s *Store) FlushAll() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		per := sh.cache.Capacity()
		sh.cache = lru.New[string, *Item](per)
		sh.mu.Unlock()
	}
}

// Len returns the number of resident items (expired-but-unreaped
// included).
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.cache.Len()
		sh.mu.Unlock()
	}
	return n
}

// Bytes returns total resident cost in bytes.
func (s *Store) Bytes() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.cache.Cost()
		sh.mu.Unlock()
	}
	return n
}

// Evictions returns the total capacity evictions across shards.
func (s *Store) Evictions() uint64 {
	var n uint64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.cache.Evictions()
		sh.mu.Unlock()
	}
	return n
}
