package memcache

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rnb/internal/xhash"
)

func newTestStore() (*Store, *int64) {
	s := NewStore(1 << 20)
	now := int64(1_700_000_000) // must exceed the 30-day relative/absolute threshold
	s.SetClock(func() int64 { return now })
	return s, &now
}

func TestStoreSetGet(t *testing.T) {
	s, _ := newTestStore()
	if err := s.Set(&Item{Key: "k", Value: []byte("v"), Flags: 7}); err != nil {
		t.Fatal(err)
	}
	it, err := s.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "v" || it.Flags != 7 {
		t.Fatalf("got %+v", it)
	}
	if _, err := s.Get("missing"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("want miss, got %v", err)
	}
}

func TestStoreBadKeys(t *testing.T) {
	s, _ := newTestStore()
	long := make([]byte, MaxKeyLen+1)
	for i := range long {
		long[i] = 'a'
	}
	bad := []string{"", "has space", "has\nnewline", "ctrl\x01", string(long)}
	for _, k := range bad {
		if err := s.Set(&Item{Key: k, Value: []byte("v")}); !errors.Is(err, ErrBadKey) {
			t.Errorf("key %q: want ErrBadKey, got %v", k, err)
		}
		if _, err := s.Get(k); !errors.Is(err, ErrBadKey) {
			t.Errorf("get %q: want ErrBadKey, got %v", k, err)
		}
	}
}

func TestStoreValueTooLarge(t *testing.T) {
	s, _ := newTestStore()
	big := make([]byte, MaxValueLen+1)
	if err := s.Set(&Item{Key: "k", Value: big}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestStoreAddReplace(t *testing.T) {
	s, _ := newTestStore()
	if err := s.Replace(&Item{Key: "k", Value: []byte("1")}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("replace missing: %v", err)
	}
	if err := s.Add(&Item{Key: "k", Value: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(&Item{Key: "k", Value: []byte("2")}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("add existing: %v", err)
	}
	if err := s.Replace(&Item{Key: "k", Value: []byte("3")}); err != nil {
		t.Fatal(err)
	}
	it, _ := s.Get("k")
	if string(it.Value) != "3" {
		t.Fatalf("value = %q", it.Value)
	}
}

func TestStoreCAS(t *testing.T) {
	s, _ := newTestStore()
	if err := s.Set(&Item{Key: "k", Value: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	it, _ := s.Get("k")
	// Correct token succeeds.
	if err := s.CompareAndSwap(&Item{Key: "k", Value: []byte("b"), CAS: it.CAS}); err != nil {
		t.Fatal(err)
	}
	// Stale token conflicts.
	if err := s.CompareAndSwap(&Item{Key: "k", Value: []byte("c"), CAS: it.CAS}); !errors.Is(err, ErrCASConflict) {
		t.Fatalf("stale cas: %v", err)
	}
	// Missing key.
	if err := s.CompareAndSwap(&Item{Key: "nope", Value: []byte("c"), CAS: 1}); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("cas missing: %v", err)
	}
}

func TestStoreCASTokensIncrease(t *testing.T) {
	s, _ := newTestStore()
	var last uint64
	for i := 0; i < 5; i++ {
		if err := s.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
		it, _ := s.Get("k")
		if it.CAS <= last {
			t.Fatalf("CAS not increasing: %d then %d", last, it.CAS)
		}
		last = it.CAS
	}
}

func TestStoreDelete(t *testing.T) {
	s, _ := newTestStore()
	_ = s.Set(&Item{Key: "k", Value: []byte("v")})
	if err := s.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestStoreExpiration(t *testing.T) {
	s, now := newTestStore()
	if err := s.Set(&Item{Key: "k", Value: []byte("v"), Expiration: 60}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("k"); err != nil {
		t.Fatal("not yet expired:", err)
	}
	*now += 61
	if _, err := s.Get("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("expired item served: %v", err)
	}
}

func TestStoreNegativeExpirationImmediate(t *testing.T) {
	s, _ := newTestStore()
	_ = s.Set(&Item{Key: "k", Value: []byte("v"), Expiration: -1})
	if _, err := s.Get("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("negative exptime item served: %v", err)
	}
}

func TestStoreAbsoluteExpiration(t *testing.T) {
	s, now := newTestStore()
	// > 30 days means absolute unix time.
	abs := int32(*now + 100)
	_ = s.Set(&Item{Key: "k", Value: []byte("v"), Expiration: abs})
	if _, err := s.Get("k"); err != nil {
		t.Fatal(err)
	}
	*now += 101
	if _, err := s.Get("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatal("absolute expiration ignored")
	}
}

// TestStoreClockOncePerTransaction: the server's read path judges every
// key of one transaction at one clock reading, and an item whose
// deadline falls between two transactions is served by the first and
// expired by the second.
func TestStoreClockOncePerTransaction(t *testing.T) {
	s := NewStore(1 << 20)
	now, reads := int64(1_700_000_000), 0
	s.SetClock(func() int64 { reads++; return now })
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
		if err := s.Set(&Item{Key: keys[i], Value: []byte("v"), Expiration: int32(10 * (i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	b := storeBackend{s}
	for _, step := range []struct {
		advance int64
		hits    int
	}{{0, 16}, {15, 15}, {200, 0}} {
		now += step.advance
		reads = 0
		hits, _ := b.appendHits(nil, keys, false)
		if reads != 1 {
			t.Errorf("+%ds: a 16-key appendHits read the clock %d times, want 1", step.advance, reads)
		}
		got := 0
		for _, it := range hits {
			if it != nil {
				got++
			}
		}
		if len(hits) != len(keys) || got != step.hits {
			t.Errorf("+%ds: %d hits in %d answers, want %d in %d", step.advance, got, len(hits), step.hits, len(keys))
		}
	}
	reads = 0
	if items, _ := b.GetMulti(keys); reads != 1 || len(items) != 0 {
		t.Errorf("GetMulti read the clock %d times and found %d items, want 1 and 0", reads, len(items))
	}
}

func TestStoreTouch(t *testing.T) {
	s, now := newTestStore()
	_ = s.Set(&Item{Key: "k", Value: []byte("v"), Expiration: 10})
	if err := s.Touch("k", 1000); err != nil {
		t.Fatal(err)
	}
	*now += 500
	if _, err := s.Get("k"); err != nil {
		t.Fatal("touch did not extend expiration:", err)
	}
	if err := s.Touch("missing", 10); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("touch missing: %v", err)
	}
}

func TestStoreAddOverExpired(t *testing.T) {
	s, now := newTestStore()
	_ = s.Set(&Item{Key: "k", Value: []byte("v"), Expiration: 10})
	*now += 11
	// Expired entries count as absent for add.
	if err := s.Add(&Item{Key: "k", Value: []byte("w")}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreAppendPrepend(t *testing.T) {
	s, _ := newTestStore()
	if err := s.Append("k", []byte("x")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("append missing: %v", err)
	}
	if err := s.Prepend("k", []byte("x")); !errors.Is(err, ErrNotStored) {
		t.Fatalf("prepend missing: %v", err)
	}
	_ = s.Set(&Item{Key: "k", Value: []byte("b")})
	if err := s.Append("k", []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepend("k", []byte("a")); err != nil {
		t.Fatal(err)
	}
	it, _ := s.Get("k")
	if string(it.Value) != "abc" {
		t.Fatalf("value = %q", it.Value)
	}
	// Oversize concat rejected (needs an unbounded store to hold the
	// max-size base value in the first place).
	ub := NewStore(0)
	big := make([]byte, MaxValueLen)
	if err := ub.Set(&Item{Key: "big", Value: big}); err != nil {
		t.Fatal(err)
	}
	if err := ub.Append("big", []byte("x")); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize append: %v", err)
	}
	if err := s.Append("bad key", []byte("x")); !errors.Is(err, ErrBadKey) {
		t.Fatalf("bad key: %v", err)
	}
}

func TestStoreIncrement(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.Increment("missing", 1); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("incr missing: %v", err)
	}
	_ = s.Set(&Item{Key: "c", Value: []byte("7")})
	v, err := s.Increment("c", 3)
	if err != nil || v != 10 {
		t.Fatalf("incr: %d %v", v, err)
	}
	v, err = s.Increment("c", -4)
	if err != nil || v != 6 {
		t.Fatalf("decr: %d %v", v, err)
	}
	v, err = s.Increment("c", -100)
	if err != nil || v != 0 {
		t.Fatalf("decr clamp: %d %v", v, err)
	}
	_ = s.Set(&Item{Key: "t", Value: []byte("xyz")})
	if _, err := s.Increment("t", 1); err == nil {
		t.Fatal("non-numeric increment succeeded")
	}
	if _, err := s.Increment("bad key", 1); !errors.Is(err, ErrBadKey) {
		t.Fatalf("bad key: %v", err)
	}
}

func TestStoreFlushAll(t *testing.T) {
	s, _ := newTestStore()
	for i := 0; i < 10; i++ {
		_ = s.Set(&Item{Key: fmt.Sprintf("k%d", i), Value: []byte("v")})
	}
	s.FlushAll()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after flush", s.Len())
	}
}

func TestStoreEvictionUnderPressure(t *testing.T) {
	s := NewStore(16 * 1024)
	val := make([]byte, 100)
	for i := 0; i < 1000; i++ {
		if err := s.Set(&Item{Key: fmt.Sprintf("key-%04d", i), Value: val}); err != nil {
			t.Fatal(err)
		}
	}
	if s.Evictions() == 0 {
		t.Fatal("no evictions under pressure")
	}
	if s.Bytes() > 16*1024 {
		t.Fatalf("resident bytes %d exceed capacity", s.Bytes())
	}
	if s.Len() == 0 {
		t.Fatal("store empty after inserts")
	}
}

func TestStorePinnedSurvivesPressure(t *testing.T) {
	s := NewStore(16 * 1024)
	if err := s.SetPinned(&Item{Key: "pinned", Value: []byte("p")}, true); err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 100)
	for i := 0; i < 2000; i++ {
		_ = s.Set(&Item{Key: fmt.Sprintf("key-%04d", i), Value: val})
	}
	if _, err := s.Get("pinned"); err != nil {
		t.Fatal("pinned item evicted:", err)
	}
}

// TestStoreRefusedWriteDropsOldValue: a write refused for capacity must
// not leave the key's older copy readable. An RnB client takes "not
// stored" on a replica to mean the replica stays virtual, so a v1 still
// served after a refused Set(v2) is a stale read.
func TestStoreRefusedWriteDropsOldValue(t *testing.T) {
	const capacity = 4 << 10
	s := NewStore(capacity)
	if err := s.Set(&Item{Key: "k", Value: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	// Pinned entries are admitted past capacity and evict nothing, so
	// "k" stays resident while they leave no room for any unpinned write.
	val := make([]byte, 100)
	for i := 0; i < 256; i++ {
		if err := s.SetPinned(&Item{Key: fmt.Sprintf("pin-%03d", i), Value: val}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Set(&Item{Key: "k", Value: []byte("v2")}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Set(v2) on a store full of pinned data = %v, want ErrNotStored", err)
	}
	if it, err := s.Get("k"); err == nil {
		t.Fatalf("after the refused Set(v2) the key still reads %q", it.Value)
	}
	if err := s.Set(&Item{Key: "pin-000", Value: []byte("p")}); err != nil {
		t.Fatalf("a write over a pinned entry was refused: %v", err)
	}
}

// TestStoreAdmitsAgainstWholeServer: a replica is admitted against the
// server's whole room beside its pinned entries (§III-C-1), not against
// a slice of it. The pinned keys and the replica's key are chosen to
// share one bucket of a 16-way key-hash split, with pinned cost above a
// sixteenth of the capacity and well under all of it, so a store that
// split its bytes by key hash would refuse the replica.
func TestStoreAdmitsAgainstWholeServer(t *testing.T) {
	const capacity = 16 << 10
	bucket := func(key string) uint64 { return xhash.String(key) % 16 }
	var same []string
	for i := 0; len(same) < 9; i++ {
		if k := fmt.Sprintf("k-%04d", i); bucket(k) == bucket("k-0000") {
			same = append(same, k)
		}
	}
	s := NewStore(capacity)
	val := make([]byte, 128)
	for _, k := range same[:8] {
		if err := s.SetPinned(&Item{Key: k, Value: val}, true); err != nil {
			t.Fatal(err)
		}
	}
	if pinned := s.Bytes(); pinned <= capacity/16 || pinned >= capacity/2 {
		t.Fatalf("pinned %d bytes; the test needs more than %d and under %d", pinned, capacity/16, capacity/2)
	}
	if err := s.Set(&Item{Key: same[8], Value: val}); err != nil {
		t.Fatalf("replica refused with %d of %d bytes pinned: %v", s.Bytes(), capacity, err)
	}
	if _, err := s.Get(same[8]); err != nil {
		t.Fatal("admitted replica not readable:", err)
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	s := NewStore(1 << 22)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("g%d-k%d", g, i%50)
				if e := s.Set(&Item{Key: k, Value: []byte("v")}); e != nil {
					err = e
					break
				}
				if _, e := s.Get(k); e != nil {
					err = e
					break
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreConditionalSetRacesTouch runs add and replace against touch
// on one key. Touch rewrites the resident item's expiration in place
// under the store lock, so the conditional stores must judge "present
// and unexpired" under that lock too; under -race this fails if they
// read the expiration after releasing it.
func TestStoreConditionalSetRacesTouch(t *testing.T) {
	s := NewStore(0)
	if err := s.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, op := range []func(int){
		func(int) { s.Add(&Item{Key: "k", Value: []byte("a")}) },
		func(int) { s.Replace(&Item{Key: "k", Value: []byte("r")}) },
		func(i int) { s.Touch("k", int32(100+i)) },
	} {
		wg.Add(1)
		go func(op func(int)) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				op(i)
			}
		}(op)
	}
	wg.Wait()
	if _, err := s.Get("k"); err != nil {
		t.Fatal("key lost:", err)
	}
}

// TestStoreAddNeverReplacesNewerSet is the regression for add judged
// and stored under two holds of the store lock: an adder replays
// Add("old") while a writer alternates Set(vN) and Delete. Once a Set
// is acknowledged the key is present, so every add until the Delete
// must be refused and the writer must read back exactly what it set. A
// check-then-act add that saw the gap before the Set overwrites it.
func TestStoreAddNeverReplacesNewerSet(t *testing.T) {
	s := NewStore(0)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		old := &Item{Key: "k", Value: []byte("old")}
		for !stop.Load() {
			s.Add(old)
		}
	}()
	for n := 1; n <= 20000 && !t.Failed(); n++ {
		want := fmt.Sprintf("v%d", n)
		if err := s.Set(&Item{Key: "k", Value: []byte(want)}); err != nil {
			t.Error(err)
			break
		}
		runtime.Gosched() // give a parked half-done add its chance to land
		if it, err := s.Get("k"); err != nil || string(it.Value) != want {
			t.Errorf("after the acknowledged Set(%s) the key reads %v, %v", want, it, err)
		}
		s.Delete("k")
	}
	stop.Store(true)
	wg.Wait()
}

// TestStoreUpdateReleasesOldValue: a kept item's key is a view of the
// buffer its value lives in (Store.keep), and the LRU holds the key, so
// an update must re-key the entry; otherwise every updated key would
// hold its old value's buffer for as long as it stays resident.
func TestStoreUpdateReleasesOldValue(t *testing.T) {
	const number = "1000000000000000000" // numeric, and too long for the tiny allocator
	for _, update := range []struct {
		name string
		fn   func(s *Store) error
	}{
		{"set", func(s *Store) error { return s.Set(&Item{Key: "k", Value: []byte(number)}) }},
		{"append", func(s *Store) error { return s.Append("k", []byte("0")) }},
		{"incr", func(s *Store) error { _, err := s.Increment("k", 1); return err }},
	} {
		t.Run(update.name, func(t *testing.T) {
			s := NewStore(0)
			if err := s.Set(&Item{Key: "k", Value: []byte(number)}); err != nil {
				t.Fatal(err)
			}
			released := make(chan struct{})
			old, err := s.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			runtime.SetFinalizer(&old.Value[0], func(*byte) { close(released) })
			old = nil
			if err := update.fn(s); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				runtime.GC()
				select {
				case <-released:
					return
				case <-time.After(10 * time.Millisecond):
				}
				runtime.KeepAlive(s) // the store itself stays reachable
			}
			t.Fatal("the entry still holds its old value's buffer after an update")
		})
	}
}
