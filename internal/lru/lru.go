// Package lru implements an O(1) least-recently-used cache with two
// service classes: ordinary entries, evicted LRU-first, and *pinned*
// entries that are never evicted.
//
// This is the "two service classes in LRU based caching systems"
// mechanism from the RnB paper (§I-C): each memcached server keeps the
// *distinguished* copy of every item mapped to it pinned in memory —
// guaranteeing a distinguished copy never misses — while extra replica
// copies compete for the remaining space under plain LRU. Overbooking
// (declaring more logical replicas than physically fit, §III-C-1) falls
// out naturally: cold replicas are simply evicted.
//
// Capacity is expressed as an abstract cost so the same cache backs both
// the simulator (cost 1 per item) and the memcached clone (cost =
// bytes).
package lru

// Cache is an LRU cache with pinned entries. It is not safe for
// concurrent use; callers lock externally (memcache.Store keeps one
// per server under one mutex).
type Cache[K comparable, V any] struct {
	capacity   int64
	cost       int64 // total cost of resident entries (incl. pinned)
	pinnedCost int64
	entries    map[K]*entry[K, V]
	// Intrusive doubly-linked list of *unpinned* entries; head is the
	// most recently used, tail the eviction candidate.
	head, tail *entry[K, V]
	onEvict    func(K, V)
	evictions  uint64
}

type entry[K comparable, V any] struct {
	key        K
	value      V
	cost       int64
	pinned     bool
	prev, next *entry[K, V]
}

// New returns a cache that holds at most capacity total cost of
// unpinned + pinned entries. Pinned inserts are always accepted, even
// past capacity (the caller sizes pinned data to fit); unpinned inserts
// evict unpinned LRU entries to make room and fail if they cannot.
func New[K comparable, V any](capacity int64) *Cache[K, V] {
	if capacity < 0 {
		panic("lru: negative capacity")
	}
	return &Cache[K, V]{
		capacity: capacity,
		entries:  make(map[K]*entry[K, V]),
	}
}

// OnEvict registers a callback invoked with each evicted key/value.
// Deletes do not trigger it; only capacity evictions do.
func (c *Cache[K, V]) OnEvict(fn func(K, V)) { c.onEvict = fn }

// Len returns the number of resident entries (pinned included).
func (c *Cache[K, V]) Len() int { return len(c.entries) }

// Cost returns the total resident cost (pinned included).
func (c *Cache[K, V]) Cost() int64 { return c.cost }

// PinnedCost returns the cost held by pinned entries.
func (c *Cache[K, V]) PinnedCost() int64 { return c.pinnedCost }

// Capacity returns the configured capacity.
func (c *Cache[K, V]) Capacity() int64 { return c.capacity }

// Evictions returns the number of entries evicted for capacity.
func (c *Cache[K, V]) Evictions() uint64 { return c.evictions }

// Contains reports residency without touching recency.
func (c *Cache[K, V]) Contains(k K) bool {
	_, ok := c.entries[k]
	return ok
}

// Get returns the value for k and promotes it to most-recently-used.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	e, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.touch(e)
	return e.value, true
}

// Peek returns the value for k without changing recency. This is the
// hitchhiker read path (§III-C-2): the paper leaves "should a server's
// LRU be updated based on a hitchhiker" as policy; Peek lets the caller
// choose not to.
func (c *Cache[K, V]) Peek(k K) (V, bool) {
	e, ok := c.entries[k]
	if !ok {
		var zero V
		return zero, false
	}
	return e.value, true
}

// Touch promotes k to most-recently-used if resident.
func (c *Cache[K, V]) Touch(k K) bool {
	e, ok := c.entries[k]
	if !ok {
		return false
	}
	c.touch(e)
	return true
}

func (c *Cache[K, V]) touch(e *entry[K, V]) {
	if e.pinned || c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}

// Admits reports whether Put(k, v, cost, pinned) would store the entry,
// without changing anything: a caller can rule on capacity before it
// builds the value. A pinned insert, and any update of a pinned entry,
// is always admitted; an unpinned one is admitted when it fits beside
// the pinned entries (an entry being resized replaces its own cost, and
// every other unpinned entry can be evicted to make room).
func (c *Cache[K, V]) Admits(k K, cost int64, pinned bool) bool {
	return c.admits(c.entries[k], cost, pinned)
}

// admits is Admits for k's entry e, nil when k is absent.
func (c *Cache[K, V]) admits(e *entry[K, V], cost int64, pinned bool) bool {
	return pinned || e != nil && e.pinned || c.pinnedCost+cost <= c.capacity
}

// Put inserts or updates k with the given cost. Pinned entries are
// always accepted and never evicted. An unpinned insert evicts unpinned
// LRU entries until it fits; if it cannot fit (cost exceeds the space
// not held by pinned entries), the insert is rejected and false is
// returned (Admits answers the same beforehand). Updating an existing
// key keeps its pinned status unless the new insert is pinned
// (promotion to pinned is allowed; demotion is not — use Delete first),
// and re-keys the entry with k, so a key that is a view of its old
// value's memory does not keep that memory alive.
func (c *Cache[K, V]) Put(k K, v V, cost int64, pinned bool) bool {
	if cost < 0 {
		panic("lru: negative cost")
	}
	e := c.entries[k]
	if !c.admits(e, cost, pinned) {
		return false
	}
	if e != nil {
		// Update in place.
		delta := cost - e.cost
		if !e.pinned && !pinned {
			c.makeRoom(delta, e)
		}
		if pinned && !e.pinned {
			c.unlink(e)
			e.pinned = true
			c.pinnedCost += cost
		} else if e.pinned {
			c.pinnedCost += delta
		}
		c.cost += delta
		e.key, e.value, e.cost = k, v, cost
		c.entries[k] = e // re-keys: assigning to a present string key stores the new string
		if !e.pinned {
			c.touch(e)
		}
		return true
	}
	if !pinned {
		c.makeRoom(cost, nil)
	}
	e = &entry[K, V]{key: k, value: v, cost: cost, pinned: pinned}
	c.entries[k] = e
	c.cost += cost
	if pinned {
		c.pinnedCost += cost
	} else {
		c.pushFront(e)
	}
	return true
}

// makeRoom evicts unpinned LRU entries until `extra` more cost fits.
// skip, if non-nil, is an entry being resized and must not be evicted.
// Admits has established that evicting every other unpinned entry is
// enough.
func (c *Cache[K, V]) makeRoom(extra int64, skip *entry[K, V]) {
	for c.cost+extra > c.capacity {
		victim := c.tail
		if victim == skip {
			victim = victim.prev
		}
		c.evict(victim)
	}
}

func (c *Cache[K, V]) evict(e *entry[K, V]) {
	c.unlink(e)
	delete(c.entries, e.key)
	c.cost -= e.cost
	c.evictions++
	if c.onEvict != nil {
		c.onEvict(e.key, e.value)
	}
}

// Delete removes k if resident, returning whether it was present.
// Pinned entries can be deleted explicitly.
func (c *Cache[K, V]) Delete(k K) bool {
	e, ok := c.entries[k]
	if !ok {
		return false
	}
	if e.pinned {
		c.pinnedCost -= e.cost
	} else {
		c.unlink(e)
	}
	delete(c.entries, k)
	c.cost -= e.cost
	return true
}

// Keys returns the unpinned keys from most- to least-recently used.
// Intended for tests and diagnostics.
func (c *Cache[K, V]) Keys() []K {
	var out []K
	for e := c.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}
