package rnb

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rnb/internal/chaos"
	"rnb/internal/memcache"
)

// TestConcurrentReadWriteConsistency hammers a small key space with
// concurrent Sets (monotonically versioned values) and GetMultis, and
// checks the paper's §IV claim in executable form: RnB's consistency
// is "no worse than memcached" — a read never returns a value that was
// never written, and per-key versions never run backwards by more than
// the in-flight write window under single-writer-per-key load.
func TestConcurrentReadWriteConsistency(t *testing.T) {
	cl, _ := newTestClient(t, 4, WithReplicas(3))
	const keysN = 16
	ks := make([]string, keysN)
	for i := range ks {
		ks[i] = fmt.Sprintf("cons:%02d", i)
		if err := cl.Set(&Item{Key: ks[i], Value: []byte("v0")}); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, keysN+4)

	// One writer per key: version counter in the value.
	for i := 0; i < keysN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for v := 1; !stop.Load(); v++ {
				it := &Item{Key: ks[i], Value: []byte(fmt.Sprintf("v%d", v))}
				if err := cl.Set(it); err != nil {
					errCh <- err
					return
				}
			}
		}(i)
	}
	// Readers: multi-gets over all keys; every value must parse as some
	// written version.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				items, _, err := cl.GetMulti(ks)
				if err != nil {
					errCh <- err
					return
				}
				for k, it := range items {
					var v int
					if _, err := fmt.Sscanf(string(it.Value), "v%d", &v); err != nil {
						errCh <- fmt.Errorf("torn value %q for %s", it.Value, k)
						return
					}
				}
			}
			stop.Store(true)
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestUpdateCASLostRaces runs competing read-modify-write cycles with
// UpdateCAS and verifies exactly one winner per round.
func TestUpdateCASLostRaces(t *testing.T) {
	cl, _ := newTestClient(t, 4, WithReplicas(3))
	const key = "counter"
	if err := cl.Set(&Item{Key: key, Value: []byte("start")}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 10; round++ {
		items, err := cl.GetsDistinguished([]string{key})
		if err != nil || items[key] == nil {
			t.Fatalf("gets: %v %v", items, err)
		}
		base := *items[key]

		var wins atomic.Int32
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				it := base // copy; same CAS token
				it.Value = []byte(fmt.Sprintf("round%d-writer%d", round, w))
				switch err := cl.UpdateCAS(&it); {
				case err == nil:
					wins.Add(1)
				case errors.Is(err, memcache.ErrCASConflict):
				default:
					t.Errorf("unexpected UpdateCAS error: %v", err)
				}
			}(w)
		}
		wg.Wait()
		if got := wins.Load(); got != 1 {
			t.Fatalf("round %d: %d CAS winners, want exactly 1", round, got)
		}
	}
}

// opLog is the global, ordered record of every mutation the recording
// servers below applied to their stores.
type opLog struct {
	mu  sync.Mutex
	ops []loggedOp
	// afterGet, when set, runs inside a server's GetMulti between the
	// store read and the reply.
	afterGet func(server int, keys []string)
}

type loggedOp struct {
	server int
	op     string
}

// recBackend serves one Store and logs each mutation that reaches it.
type recBackend struct {
	store  *memcache.Store
	server int
	log    *opLog
}

func (b recBackend) rec(op string) {
	b.log.mu.Lock()
	b.log.ops = append(b.log.ops, loggedOp{b.server, op})
	b.log.mu.Unlock()
}

func (b recBackend) GetMulti(keys []string) (map[string]*memcache.Item, error) {
	out := make(map[string]*memcache.Item, len(keys))
	for _, k := range keys {
		if it, err := b.store.Get(k); err == nil {
			out[k] = it
		}
	}
	b.log.mu.Lock()
	hook := b.log.afterGet
	b.log.mu.Unlock()
	if hook != nil {
		hook(b.server, keys)
	}
	return out, nil
}
func (b recBackend) GetsMulti(keys []string) (map[string]*memcache.Item, error) {
	return b.GetMulti(keys)
}
func (b recBackend) Set(it *memcache.Item) error { b.rec("set"); return b.store.Set(it) }
func (b recBackend) SetPinned(it *memcache.Item) error {
	b.rec("setp")
	return b.store.SetPinned(it, true)
}
func (b recBackend) Add(it *memcache.Item) error     { b.rec("add"); return b.store.Add(it) }
func (b recBackend) Replace(it *memcache.Item) error { b.rec("replace"); return b.store.Replace(it) }
func (b recBackend) CompareAndSwap(it *memcache.Item) error {
	b.rec("cas")
	return b.store.CompareAndSwap(it)
}
func (b recBackend) Append(key string, data []byte) error {
	b.rec("append")
	return b.store.Append(key, data)
}
func (b recBackend) Prepend(key string, data []byte) error {
	b.rec("prepend")
	return b.store.Prepend(key, data)
}
func (b recBackend) Increment(key string, delta int64) (uint64, error) {
	b.rec("incr")
	return b.store.Increment(key, delta)
}
func (b recBackend) Delete(key string) error { b.rec("delete"); return b.store.Delete(key) }
func (b recBackend) Touch(key string, exp int32) error {
	b.rec("touch")
	return b.store.Touch(key, exp)
}
func (b recBackend) FlushAll() error                 { b.store.FlushAll(); return nil }
func (b recBackend) BackendStats() map[string]string { return nil }

// startRecServers launches n recording servers sharing one log. Server
// i logs under index i, which is also its slot index when the client is
// built (and grown) in address order.
func startRecServers(t *testing.T, n int) ([]string, *opLog) {
	t.Helper()
	log := &opLog{}
	addrs := make([]string, n)
	for i := range addrs {
		srv := memcache.NewServerBackend(recBackend{store: memcache.NewStore(0), server: i, log: log})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		addrs[i] = ln.Addr().String()
	}
	return addrs, log
}

// TestWriteSetTable pins down the write path's contract — which server
// an operation reaches, with what, and on which side of the
// distinguished write — for every mutator over the two shapes a write
// set takes: a static tier, and an open transition window where the
// newest epoch has its own distinguished server. Roles come from the
// placement primitives, not from writeSet.
func TestWriteSetTable(t *testing.T) {
	type shape struct {
		name string
		cl   *Client
		log  *opLog
		key  string
	}
	var shapes []shape

	addrs, log := startRecServers(t, 4)
	cl, err := NewClient(addrs, WithReplicas(3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	shapes = append(shapes, shape{"static", cl, log, "ws:static"})

	addrs, log = startRecServers(t, 5)
	cl, err = NewClient(addrs[:4], WithReplicas(2), WithTransitionWindow(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.AddServer(addrs[4]); err != nil {
		t.Fatal(err)
	}
	moved := ""
	for i := 0; i < 10000 && moved == ""; i++ {
		k := fmt.Sprintf("ws:moved:%d", i)
		tr := cl.cur.Load()
		if tr.newest.Replicas(keyID(k), nil)[0] != tr.replicas(k)[0] {
			moved = k
		}
	}
	if moved == "" {
		t.Fatal("no key changes distinguished server when the fifth server joins")
	}
	shapes = append(shapes, shape{"transition", cl, log, moved})

	ops := []struct {
		name string
		run  func(cl *Client, key string, cas uint64) error
		// dist is the distinguished copy's op; newest the newest epoch's
		// distinguished copy's ops; and replica every other copy's.
		dist        string
		newest      []string
		replica     string
		othersFirst bool
	}{
		{"Set", func(cl *Client, k string, _ uint64) error { return cl.Set(&Item{Key: k, Value: []byte("11")}) },
			"setp", []string{"setp"}, "set", false},
		{"Update", func(cl *Client, k string, _ uint64) error { return cl.Update(&Item{Key: k, Value: []byte("12")}) },
			"setp", []string{"delete", "setp"}, "delete", true},
		{"UpdateCAS", func(cl *Client, k string, cas uint64) error {
			return cl.UpdateCAS(&Item{Key: k, Value: []byte("13"), CAS: cas})
		}, "cas", []string{"delete"}, "delete", false},
		{"Append", func(cl *Client, k string, _ uint64) error { return cl.Append(k, []byte("0")) },
			"append", []string{"delete"}, "delete", false},
		{"Prepend", func(cl *Client, k string, _ uint64) error { return cl.Prepend(k, []byte("1")) },
			"prepend", []string{"delete"}, "delete", false},
		{"Increment", func(cl *Client, k string, _ uint64) error { _, err := cl.Increment(k, 5); return err },
			"incr", []string{"delete"}, "delete", false},
		{"Delete", func(cl *Client, k string, _ uint64) error { return cl.Delete(k) },
			"delete", []string{"delete"}, "delete", false},
		{"Touch", func(cl *Client, k string, _ uint64) error { return cl.Touch(k, 60) },
			"touch", []string{"touch"}, "touch", false},
	}

	for _, sh := range shapes {
		tr := sh.cl.cur.Load()
		all := tr.replicas(sh.key)
		newest := -1
		if tr.union != nil {
			newest = tr.newest.Replicas(keyID(sh.key), nil)[0]
		}
		if sh.name == "transition" && (newest < 0 || newest == all[0] || !slices.Contains(all, newest)) {
			t.Fatalf("%s: newest distinguished %d not a distinct member of the union %v", sh.name, newest, all)
		}
		for _, op := range ops {
			// Every copy present and the log empty before the operation.
			if err := sh.cl.Set(&Item{Key: sh.key, Value: []byte("10")}); err != nil {
				t.Fatalf("%s/%s: seeding: %v", sh.name, op.name, err)
			}
			items, err := sh.cl.GetsDistinguished([]string{sh.key})
			if err != nil || items[sh.key] == nil {
				t.Fatalf("%s/%s: gets: %v %v", sh.name, op.name, items, err)
			}
			sh.log.mu.Lock()
			sh.log.ops = nil
			sh.log.mu.Unlock()

			if err := op.run(sh.cl, sh.key, items[sh.key].CAS); err != nil {
				t.Fatalf("%s/%s: %v", sh.name, op.name, err)
			}

			want := map[int][]string{}
			for i, s := range all {
				switch {
				case i == 0:
					want[s] = []string{op.dist}
				case s == newest:
					want[s] = op.newest
				default:
					want[s] = []string{op.replica}
				}
			}
			sh.log.mu.Lock()
			logged := slices.Clone(sh.log.ops)
			sh.log.mu.Unlock()
			got := map[int][]string{}
			distAt, lastNewest := -1, -1
			firstAt := map[int]int{}
			for i, lo := range logged {
				if _, seen := firstAt[lo.server]; !seen {
					firstAt[lo.server] = i
				}
				switch lo.server {
				case all[0]:
					distAt = i
				case newest:
					lastNewest = i
				}
				got[lo.server] = append(got[lo.server], lo.op)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: servers got %v, want %v (dist %d, all %v, newest %d)",
					sh.name, op.name, got, want, all[0], all, newest)
				continue
			}
			for _, s := range all[1:] {
				if before := firstAt[s] < distAt; before != op.othersFirst {
					t.Errorf("%s/%s: server %d handled before the distinguished write = %v, want %v: %v",
						sh.name, op.name, s, before, op.othersFirst, logged)
				}
			}
			// The newest epoch's distinguished copy is written after the
			// transition-wide one, never before.
			if newest >= 0 && op.newest[len(op.newest)-1] == "setp" && lastNewest < distAt {
				t.Errorf("%s/%s: newest distinguished written before the distinguished copy: %v", sh.name, op.name, logged)
			}
		}
	}
}

// TestWriteBackKeepsNewerCopy is the regression for round 2's
// write-back racing a Set: the value it carries was read one round trip
// earlier, so it may only fill a replica that is still empty. The
// distinguished server is made to read v1 for the reader's round 2,
// let a second client's Set(v2) run to completion, and only then
// reply; the replica the reader writes back to must still hold v2.
func TestWriteBackKeepsNewerCopy(t *testing.T) {
	addrs, log := startRecServers(t, 4)
	dial := func() *Client {
		cl, err := NewClient(addrs, WithReplicas(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	reader, writer := dial(), dial()
	tr := reader.cur.Load()
	ks := keys(30)
	for _, k := range ks {
		if err := writer.Set(&Item{Key: k, Value: []byte("v1")}); err != nil {
			t.Fatal(err)
		}
	}
	// copyOn reads key's copy on server s directly ("" when absent).
	copyOn := func(s int, key string) string {
		var v string
		if err := tr.slots[s].do(func(conn memcache.Conn) error {
			items, err := conn.GetMulti([]string{key})
			if it := items[key]; it != nil {
				v = string(it.Value)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return v
	}
	// strip leaves every key on its distinguished server only, so each
	// read that is planned elsewhere goes through round 2.
	strip := func() {
		for _, k := range ks {
			for _, s := range tr.replicas(k)[1:] {
				if err := tr.slots[s].do(dropCopy(k)); err != nil && !errors.Is(err, ErrCacheMiss) {
					t.Fatal(err)
				}
			}
		}
	}

	// A dry run finds a key the (deterministic) plan reads from a
	// non-distinguished replica: the one a write-back just refilled.
	strip()
	if _, _, err := reader.GetMulti(ks); err != nil {
		t.Fatal(err)
	}
	key, dist, replica := "", -1, -1
	for _, k := range ks {
		if rs := tr.replicas(k); copyOn(rs[1], k) != "" {
			key, dist, replica = k, rs[0], rs[1]
			break
		}
	}
	if key == "" {
		t.Fatal("no key of the request was recovered through round 2")
	}
	strip()

	var armed atomic.Bool
	log.mu.Lock()
	log.afterGet = func(server int, got []string) {
		if server == dist && slices.Contains(got, key) && armed.CompareAndSwap(true, false) {
			if err := writer.Set(&Item{Key: key, Value: []byte("v2")}); err != nil {
				t.Errorf("racing Set: %v", err)
			}
		}
	}
	log.mu.Unlock()
	armed.Store(true)
	items, _, err := reader.GetMulti(ks)
	if err != nil {
		t.Fatal(err)
	}
	if armed.Load() || string(items[key].Value) != "v1" {
		t.Fatalf("the Set did not land between round 2's read and its reply (reader got %q)", items[key].Value)
	}
	if got := copyOn(replica, key); got != "v2" {
		t.Fatalf("replica %d holds %q after the write-back, want the acknowledged v2", replica, got)
	}
}

// strandedTier is the set-up the write-back regressions share: every
// key holds "v1" on its distinguished server only, so each key a
// multi-get plans on its other replica is recovered by round 2 and
// handed back to that replica with a deferred add.
type strandedTier struct {
	t       *testing.T
	cl      *Client
	servers []*memcache.Server
	clk     *writeBackClock
	ks      []string
}

func newStrandedTier(t *testing.T, cl *Client, servers []*memcache.Server, ks []string, value []byte) *strandedTier {
	t.Helper()
	st := &strandedTier{t: t, cl: cl, servers: servers, clk: holdWriteBackClock(cl), ks: ks}
	for _, k := range ks {
		if err := cl.Set(&Item{Key: k, Value: value}); err != nil {
			t.Fatal(err)
		}
	}
	st.strand()
	return st
}

// strand removes every non-distinguished copy, directly in the stores.
func (st *strandedTier) strand() {
	tr := st.cl.cur.Load()
	for _, k := range st.ks {
		for _, s := range tr.replicas(k)[1:] {
			st.servers[s].Store().Delete(k)
		}
	}
}

// read runs the multi-get that leaves write-backs queued and returns how
// many are still waiting for a command to carry them.
func (st *strandedTier) read() int {
	st.t.Helper()
	items, stats, err := st.cl.GetMulti(st.ks)
	if err != nil || len(items) != len(st.ks) || stats.Round2 == 0 {
		st.t.Fatalf("%d/%d items, %+v, err %v: want a full read through round 2", len(items), len(st.ks), stats, err)
	}
	wb := st.cl.poolGauges
	return int(wb.WriteBackQueued.Load() - wb.WriteBackCarried.Load() - wb.WriteBackDroppedAge.Load() - wb.WriteBackDroppedConn.Load())
}

// flush sends every server one command that stores nothing, carrying
// whatever is queued for it.
func (st *strandedTier) flush() {
	st.t.Helper()
	for _, sl := range st.cl.cur.Load().slots {
		if err := sl.call(func(conn memcache.Conn) error { _, err := conn.Version(); return err }); err != nil {
			st.t.Fatal(err)
		}
	}
}

// stores counts the storage commands (adds included) the tier has
// executed.
func (st *strandedTier) stores() (n uint64) {
	for _, srv := range st.servers {
		n += srv.Stats().CmdSet.Load()
	}
	return n
}

// replicaCopy reads key's copy on its non-distinguished replica, in
// the store ("" when absent).
func (st *strandedTier) replicaCopy(key string) string {
	it, err := st.servers[st.cl.cur.Load().replicas(key)[1]].Store().Get(key)
	if err != nil {
		return ""
	}
	return string(it.Value)
}

// queuedKey returns a key whose write-back read leaves queued. A dry
// run finds it — read, note the empty replicas, flush, see which filled
// — and the tier is stranded again; plans and reply order are
// deterministic, so the next read queues the same keys.
func (st *strandedTier) queuedKey() string {
	st.t.Helper()
	st.read()
	var empty []string
	for _, k := range st.ks {
		if st.replicaCopy(k) == "" {
			empty = append(empty, k)
		}
	}
	st.flush()
	for _, k := range empty {
		if st.replicaCopy(k) != "" {
			st.strand()
			return k
		}
	}
	st.t.Fatal("no write-back outlived the read that queued it")
	return ""
}

// TestWriteBackProgramOrder: a write-back this client queued stays
// ahead of any mutation the same client issues afterwards, because it
// leaves on the same connection in front of it. After GetMulti has
// served v1 and left add(key, v1) queued for the replica, Set(v2) leaves
// v2 there, Delete and Update leave nothing — never the resurrected v1
// a late add would plant behind a delete.
func TestWriteBackProgramOrder(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mutate  func(cl *Client, key string) error
		replica string // the replica's copy afterwards
		reads   string // what the tier then serves for the key ("" for a miss)
	}{
		{"Set", func(cl *Client, k string) error { return cl.Set(&Item{Key: k, Value: []byte("v2")}) }, "v2", "v2"},
		{"Delete", func(cl *Client, k string) error { return cl.Delete(k) }, "", ""},
		{"Update", func(cl *Client, k string) error { return cl.Update(&Item{Key: k, Value: []byte("v2")}) }, "", "v2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, servers := newTestClient(t, 4, WithReplicas(2))
			st := newStrandedTier(t, cl, servers, keys(30), []byte("v1"))
			key := st.queuedKey()
			if st.read() == 0 || st.replicaCopy(key) != "" {
				t.Fatalf("the write-back of %s is not queued behind the read (replica holds %q)", key, st.replicaCopy(key))
			}
			carried := cl.poolGauges.WriteBackCarried.Load()
			if err := tc.mutate(cl, key); err != nil {
				t.Fatal(err)
			}
			if cl.poolGauges.WriteBackCarried.Load() == carried {
				t.Fatal("the mutation carried no queued add to the replica's server")
			}
			if got := st.replicaCopy(key); got != tc.replica {
				t.Fatalf("replica holds %q after %s, want %q", got, tc.name, tc.replica)
			}
			st.flush() // nothing still queued may undo it either
			if got := st.replicaCopy(key); got != tc.replica {
				t.Fatalf("replica holds %q once every queue has drained, want %q", got, tc.replica)
			}
			items, _, err := cl.GetMulti(st.ks)
			if err != nil {
				t.Fatal(err)
			}
			if got := items[key]; (got == nil) != (tc.reads == "") || (got != nil && string(got.Value) != tc.reads) {
				t.Fatalf("the tier serves %+v for %s after %s, want %q", got, key, tc.name, tc.reads)
			}
		})
	}
}

// TestWriteBackNeverSentLate: the two bounds on a queued write-back. One
// that no command followed within the age bound is dropped, not sent
// when a command finally comes; ones that would pass the byte cap are
// never queued. Either way the servers execute no add for them, and the
// counters say why the replica stayed virtual.
func TestWriteBackNeverSentLate(t *testing.T) {
	t.Run("age", func(t *testing.T) {
		cl, servers := newTestClient(t, 4, WithReplicas(2))
		st := newStrandedTier(t, cl, servers, keys(30), []byte("v1"))
		queued := st.read()
		if queued == 0 {
			t.Fatal("the read left no write-back queued")
		}
		before := st.stores()
		st.clk.advance(10 * time.Millisecond)
		st.flush()
		if got := st.stores(); got != before {
			t.Fatalf("%d storage commands reached the tier after the age bound had passed", got-before)
		}
		if got := cl.poolGauges.WriteBackDroppedAge.Load(); int(got) != queued {
			t.Fatalf("dropped_age %d, want the %d that were queued", got, queued)
		}
		// The replicas stayed virtual, so the next read recovers them again.
		if st.read() == 0 {
			t.Fatal("the second read queued nothing: the dropped write-backs had landed")
		}
	})
	t.Run("bytes", func(t *testing.T) {
		// Two servers, r = 2: the plan is one transaction, every key whose
		// distinguished copy is on the other server is recovered in one
		// round-2 reply, and all their write-backs queue for one server —
		// 4 KB each, past the cap well before the last.
		cl, servers := newTestClient(t, 2, WithReplicas(2))
		st := newStrandedTier(t, cl, servers, keys(40), make([]byte, 4<<10))
		before := st.stores()
		queued := st.read()
		wb := cl.poolGauges
		if wb.WriteBackDroppedFull.Load() == 0 || queued == 0 {
			t.Fatalf("queued %d, dropped_full %d: want both", queued, wb.WriteBackDroppedFull.Load())
		}
		st.flush()
		if got, want := st.stores()-before, wb.WriteBackQueued.Load(); got != want {
			t.Fatalf("the tier executed %d adds, want the %d that fitted the cap", got, want)
		}
		if wb.WriteBackCarried.Load() != wb.WriteBackQueued.Load() {
			t.Fatalf("carried %d of %d queued", wb.WriteBackCarried.Load(), wb.WriteBackQueued.Load())
		}
	})
}

// finListener remembers the connections it accepted, so a test can
// close the server's end of each with a FIN — an orderly close, where
// chaos.Injector.Kill resets them.
type finListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *finListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, conn)
		l.mu.Unlock()
	}
	return conn, err
}

// closeAll closes the server's end of every connection accepted so far.
func (l *finListener) closeAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, conn := range l.conns {
		conn.Close()
	}
	l.conns = nil
}

// TestWriteBackDroppedWithItsConnection: queued write-backs die with
// the connection they were queued for. Closed by the server or reset
// under them, the connection that replaces it carries none of them —
// the idempotent read that found it broken is replayed alone.
func TestWriteBackDroppedWithItsConnection(t *testing.T) {
	run := func(t *testing.T, cl *Client, servers []*memcache.Server, sever func()) {
		st := newStrandedTier(t, cl, servers, keys(30), []byte("v1"))
		queued := st.read()
		if queued == 0 {
			t.Fatal("the read left no write-back queued")
		}
		before := st.stores()
		sever()
		// Reads, so that a connection found broken is replayed.
		for i, sl := range cl.cur.Load().slots {
			if err := sl.call(func(conn memcache.Conn) error { _, err := conn.GetMulti(st.ks[:1]); return err }); err != nil {
				t.Fatalf("server %d after the connections were severed: %v", i, err)
			}
		}
		st.flush()
		if got := st.stores(); got != before {
			t.Fatalf("%d adds reached the tier over the replacement connections", got-before)
		}
		wb := cl.poolGauges
		if lost := wb.WriteBackDroppedConn.Load() + wb.WriteBackCarried.Load() - (wb.WriteBackQueued.Load() - uint64(queued)); int(lost) != queued {
			t.Fatalf("queued %d, but dropped_conn %d and carried %d of %d in all", queued, wb.WriteBackDroppedConn.Load(), wb.WriteBackCarried.Load(), wb.WriteBackQueued.Load())
		}
	}
	t.Run("closed", func(t *testing.T) {
		addrs := make([]string, 4)
		servers := make([]*memcache.Server, 4)
		listeners := make([]*finListener, 4)
		for i := range addrs {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			servers[i], listeners[i], addrs[i] = memcache.NewServer(memcache.NewStore(0)), &finListener{Listener: ln}, ln.Addr().String()
			go servers[i].Serve(listeners[i])
			t.Cleanup(func() { servers[i].Close() })
		}
		cl, err := NewClient(addrs, WithReplicas(2))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		run(t, cl, servers, func() {
			for _, ln := range listeners {
				ln.closeAll()
			}
		})
	})
	t.Run("reset", func(t *testing.T) {
		profiles := map[int]chaos.Profile{0: {}, 1: {}, 2: {}, 3: {}}
		cl, servers, injectors := newChaosClient(t, 4, profiles, WithReplicas(2))
		run(t, cl, servers, func() {
			for _, inj := range injectors {
				inj.Kill()
				inj.Revive()
			}
		})
	})
}
