package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"rnb"
	"rnb/internal/calibrate"
	"rnb/internal/core"
	"rnb/internal/hashring"
	"rnb/internal/memcache"
	"rnb/internal/memslap"
	"rnb/internal/obs"
	"rnb/internal/xhash"
)

// pass is one sequential run of a fixed request list by one client.
type pass struct {
	startNS, durNS []int64  // per request, harness-timed, since the recorder's zero
	setTxns        []uint64 // server transactions of each Set
	failed         int
	tier           tierStats // the servers' counters over the pass
}

func (e *env) runPass(reqs []op, zero time.Time) pass {
	p := pass{startNS: make([]int64, len(reqs)), durNS: make([]int64, len(reqs))}
	t0 := e.tierStats()
	for i := range reqs {
		o := &reqs[i]
		var tx0 uint64
		if o.kind == opSet {
			tx0 = e.tierTxns()
		}
		start := time.Now()
		ok := e.exec(0, o)
		p.startNS[i], p.durNS[i] = int64(start.Sub(zero)), int64(time.Since(start))
		if o.kind == opSet {
			p.setTxns = append(p.setTxns, e.tierTxns()-tx0)
		}
		if !ok {
			p.failed++
		}
	}
	p.tier = e.tierStats().sub(t0)
	return p
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func usOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}

func sum(ns []int64) (s float64) {
	for _, v := range ns {
		s += float64(v)
	}
	return s
}

// runLayers is the traced run: one client, a fixed count of post-warm-up
// requests of the same seeded stream, once untraced and once traced,
// then an isolated replay of the same inputs through each layer's
// public entry point. Counts repeat exactly for a seed; the spans of
// the first z.traceReqs requests go to outDir/trace-<workload>.json.
func runLayers(sp *spec, seed int64, z sizes, outDir string) (*result, error) {
	m := newMetricSet(perLayer)
	res := newResult(sp, "layers", seed, 0, m)
	res.Clients = 1
	res.HostSpinMS[0] = hostSpinMS(z.spinIters)

	e, _, err := setUp(sp, seed, z, 1, rnb.WithObservability(rnb.ObsConfig{RingSize: z.layerReqs}))
	if err != nil {
		return nil, err
	}
	defer e.close()
	res.PortBase, res.StreamSHA256 = e.portBase, e.st.sha
	reqs := e.st.ops[e.st.warm : e.st.warm+z.layerReqs]
	rec := &recorder{zero: time.Now(), limit: z.traceReqs}

	// The stream itself.
	sizesOf := make([]float64, len(e.st.ops))
	for i, o := range e.st.ops {
		sizesOf[i] = math.Max(1, float64(o.n))
	}
	m.set("workload.keys_per_req_mean", mean(sizesOf))
	sort.Float64s(sizesOf)
	m.set("workload.keys_per_req_p99", quantile(sizesOf, 0.99))
	m.set("workload.gen_us_per_req", e.st.genSeconds*1e6/float64(len(e.st.ops)))

	// Pass A, untraced: the program's own request records give the
	// plan / fan-out / round-2 split.
	cpu0 := cpuSeconds()
	a := e.runPass(reqs, rec.zero)
	m.set("rnb.request_cpu_us", ratio((cpuSeconds()-cpu0)*1e6, float64(len(reqs))))
	var multis, sets []int // indices into reqs
	var keysAsked uint64
	for i, o := range reqs {
		switch o.kind {
		case opSet:
			sets = append(sets, i)
		case opGetMulti:
			multis = append(multis, i)
			keysAsked += uint64(o.n)
		default:
			keysAsked++
		}
	}
	// The ring is newest first and still holds warm-up requests behind
	// the pass's own.
	spansA := e.client.RecentRequests()
	spansA = spansA[:min(len(spansA), len(multis))]
	for i, j := 0, len(spansA)-1; i < j; i, j = i+1, j-1 {
		spansA[i], spansA[j] = spansA[j], spansA[i]
	}
	var plan, fanout, round2, total, harness []int64
	var round2Trips, spanTxns, hitchhikers uint64
	if len(spansA) != len(multis) {
		res.Oracle = append(res.Oracle, fmt.Sprintf("counts: %d multi-gets issued but the client recorded %d spans", len(multis), len(spansA)))
	} else {
		for j, s := range spansA {
			if s.Keys != int(reqs[multis[j]].n) {
				res.Oracle = append(res.Oracle, fmt.Sprintf("counts: span %d is of %d keys, multi-get %d asked for %d", j, s.Keys, j, reqs[multis[j]].n))
				break
			}
			plan, fanout, round2, total = append(plan, s.PlanNS), append(fanout, s.FanoutNS), append(round2, s.Round2NS), append(total, s.TotalNS)
			harness = append(harness, a.durNS[multis[j]])
			round2Trips += uint64(s.Round2)
			spanTxns += uint64(s.Transactions)
			hitchhikers += uint64(s.Hitchhikers)
		}
	}
	n := float64(len(spansA))
	m.set("rnb.plan_us_per_req", ratio(sum(plan)/1e3, n))
	m.set("rnb.fanout_us_per_req", ratio(sum(fanout)/1e3, n))
	m.set("rnb.round2_us_per_req", ratio(sum(round2)/1e3, n))
	m.set("rnb.self_us_per_req", ratio((sum(total)-sum(plan)-sum(fanout)-sum(round2))/1e3, n))
	m.set("rnb.round2_txn_share", ratio(float64(round2Trips), float64(spanTxns)))
	m.set("rnb.getmulti_p50_us", median(usOf(total)))
	allDur := usOf(a.durNS)
	sort.Float64s(allDur)
	m.set("rnb.request_p99_us", quantile(allDur, 0.99))
	var setDur []int64
	var setTxns uint64
	for j, i := range sets {
		setDur = append(setDur, a.durNS[i])
		setTxns += a.setTxns[j]
	}
	m.set("rnb.set_p50_us", median(usOf(setDur)))
	m.set("rnb.set_txns_per_op", ratio(float64(setTxns), float64(len(sets))))
	m.set("memcache.server_txns_per_req", ratio(float64(a.tier.txns), float64(len(reqs))))
	m.set("memcache.server_hit_ratio", ratio(float64(a.tier.hits), float64(a.tier.hits+a.tier.misses)))
	m.set("memcache.store_evictions_per_set", ratio(float64(a.tier.evictions), float64(a.tier.sets)))
	m.set("memcache.store_bytes_per_user_byte", ratio(float64(a.tier.bytes), float64(e.st.universe)*float64(itemBytes())))
	if g := e.client.PoolGauges(); g != nil {
		m.set("memcache.pool_pipeline_high_water", float64(g.PipelineHighWater.Load()))
		m.set("memcache.pool_replays", float64(g.Replays.Load()))
	}
	if sp.proxy {
		var dur []int64
		for _, i := range multis[:min(len(multis), z.replayOps)] {
			start := time.Now()
			items, err := e.proxy.GetMulti(e.keyNames(&reqs[i]))
			dur = append(dur, int64(time.Since(start)))
			rec.replay(i, "proxy.getmulti", start, dur[len(dur)-1])
			if err != nil || len(items) != int(reqs[i].n) {
				a.failed++
			}
		}
		m.set("proxy.getmulti_p50_us", median(usOf(dur)))
		m.set("proxy.front_overhead_us_per_req", ratio((sum(harness)-sum(total))/1e3, n))
	}

	// Pass B, traced: every multi-get carries a trace context, every
	// round trip comes back split into client queue, wire and the
	// server's phases.
	var mu sync.Mutex
	var spansB []obs.Span
	err = e.connect(rnb.WithTracing(rnb.TraceConfig{SampleEvery: 1, ReservoirCapacity: -1, OnFinish: func(s *obs.Span) {
		c := *s
		c.RTTs = append([]obs.TxnRTT(nil), s.RTTs...)
		mu.Lock()
		spansB = append(spansB, c)
		mu.Unlock()
	}}))
	if err != nil {
		return nil, err
	}
	if sp.proxy {
		e.fronts[0].SetTracing(true)
		e.traceFront = true
	}
	b := e.runPass(reqs, rec.zero)
	m.set("obs.tracing_overhead_share", ratio(sum(b.durNS)-sum(a.durNS), sum(a.durNS)))
	var rtts []obs.TxnRTT
	for _, s := range spansB {
		for _, r := range s.RTTs {
			if r.ServerTimings != nil {
				rtts = append(rtts, r)
			}
		}
	}
	if len(spansB) == len(multis) {
		for j, s := range spansB[:min(len(spansB), z.traceReqs)] {
			i := multis[j]
			rec.request(i, b.startNS[i], b.durNS[i], &s)
		}
	} else {
		res.Oracle = append(res.Oracle, fmt.Sprintf("counts: %d multi-gets issued but %d traces finished", len(multis), len(spansB)))
	}

	// Isolated replays of the same inputs, one layer at a time.
	lay := newLayerReplay(e, rec)
	lay.placement(reqs, m)
	planned := lay.planner(reqs, m)
	// point_get's Gets carry no trace: its server timings come from
	// traced single transactions on the scratch server instead.
	scratchRTTs, err := lay.scratch(planned.keysPerTxn(), z, len(rtts) == 0, m)
	if err != nil {
		return nil, err
	}
	rtts = append(rtts, scratchRTTs...)
	if sp.name == "point_get" {
		if err := calibrateServer(e.portBase+calibSlot, seed, z, m); err != nil {
			return nil, err
		}
	}
	setRoundTripMetrics(m, rtts)

	// The oracle ties the layers to the end-to-end numbers. Counts: the
	// transactions the servers saw serving reads are exactly the ones
	// the planner planned plus the round-2 trips (a point get is one).
	pointGets := uint64(len(reqs) - len(multis) - len(sets))
	wantTxns := planned.txns + round2Trips + pointGets
	gotTxns := a.tier.txns - a.tier.sets
	if math.Abs(float64(gotTxns)-float64(wantTxns)) > 0.01*float64(wantTxns) {
		res.Oracle = append(res.Oracle, fmt.Sprintf("counts: servers saw %d read transactions, planner + round 2 account for %d", gotTxns, wantTxns))
	}
	// Times: plan + fan-out + round 2 + self is the client's own total,
	// and that total is the harness-timed request within clock noise (on
	// the proxy workload the harness times the front hop instead, which
	// can only be longer).
	for j := range total {
		if plan[j]+fanout[j]+round2[j] > total[j] || total[j] > harness[j] {
			res.Oracle = append(res.Oracle, fmt.Sprintf("timing: multi-get %d: plan %d + fanout %d + round2 %d, client total %d, harness %d ns", j, plan[j], fanout[j], round2[j], total[j], harness[j]))
			break
		}
	}
	if gap := ratio(sum(harness)-sum(total), n); !sp.proxy && gap > math.Max(5e3, 0.05*ratio(sum(harness), n)) {
		res.Oracle = append(res.Oracle, fmt.Sprintf("timing: harness-timed multi-get exceeds the client's own total by %.0f ns on average", gap))
	}

	res.Counts = map[string]uint64{
		"requests": uint64(len(reqs)), "multi_gets": uint64(len(multis)), "sets": uint64(len(sets)), "keys_requested": keysAsked,
		"planned_txns": planned.txns, "planned_hitchhikers": planned.hitchhikers,
		"client_txns": spanTxns, "client_hitchhikers": hitchhikers, "round2_trips": round2Trips, "set_txns": setTxns,
		"server_txns": a.tier.txns, "server_sets": a.tier.sets, "server_get_keys": a.tier.getKeys,
		"server_hits": a.tier.hits, "server_misses": a.tier.misses, "store_evictions": a.tier.evictions,
		"traced_server_txns": b.tier.txns, "traced_rtts": uint64(len(rtts)),
	}

	res.Attempted = 2*len(reqs) + lay.attempted
	res.Failed = a.failed + b.failed + lay.failed
	res.Samples = len(reqs)
	res.FailShare = ratio(float64(res.Failed), float64(res.Attempted))
	res.ItemsPerReq = ratio(float64(e.items[0]), float64(2*len(reqs)+e.st.warm))
	res.HostSpinMS[1] = hostSpinMS(z.spinIters)
	res.Noisy = noisy(res.HostSpinMS[0], res.HostSpinMS[1])
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return res, rec.write(filepath.Join(outDir, "trace-"+sp.name+".json"))
}

// setRoundTripMetrics averages the traced round trips' attribution:
// client queue, wire residual and the server's phases.
func setRoundTripMetrics(m *metricSet, rtts []obs.TxnRTT) {
	var cq, wire, sq, parse, exec, wait, flush float64
	for i := range rtts {
		r := &rtts[i]
		st := r.ServerTimings
		cq, wire = cq+float64(r.QueueNS), wire+float64(r.WireNS())
		sq, parse, exec, wait, flush = sq+float64(st.QueueNS), parse+float64(st.ParseNS), exec+float64(st.ExecNS), wait+float64(st.WaitNS), flush+float64(st.FlushNS)
	}
	k := float64(len(rtts)) * 1e3 // ns -> us per transaction
	m.set("memcache.client_queue_us_per_txn", ratio(cq, k))
	m.set("memcache.wire_us_per_txn", ratio(wire, k))
	m.set("memcache.server_queue_us_per_txn", ratio(sq, k))
	m.set("memcache.server_parse_us_per_txn", ratio(parse, k))
	m.set("memcache.server_exec_us_per_txn", ratio(exec, k))
	m.set("memcache.server_lockwait_us_per_txn", ratio(wait, k))
	m.set("memcache.server_flush_us_per_txn", ratio(flush, k))
}

// keyNames returns the key strings of a request (fresh slice).
func (e *env) keyNames(o *op) []string {
	keys := make([]string, 0, o.n)
	for _, id := range e.st.keysOf(o) {
		keys = append(keys, e.keys[id])
	}
	return keys
}

// itemBytes is what the store charges for one of the benchmark's items.
func itemBytes() int64 {
	s := memcache.NewStore(0)
	_ = s.Set(&memcache.Item{Key: keyName(0), Value: makeValue(keyName(0), 0)}) // a valid key cannot fail on an unbounded store
	return s.Bytes()
}

// layerReplay feeds the run's own inputs to one layer at a time,
// through the layer's public entry point, outside the request path.
type layerReplay struct {
	e         *env
	rec       *recorder
	plc       *hashring.RCHPlacement
	itemID    []uint64 // planner item id of every key
	failed    int
	attempted int
}

func newLayerReplay(e *env, rec *recorder) *layerReplay {
	// The placement the client builds: default virtual nodes, servers in
	// address order, ranged consistent hashing at the replication level.
	ring := hashring.New(0)
	for _, addr := range e.addrs {
		if _, err := ring.AddServer(addr); err != nil {
			panic(err) // addresses are distinct by construction
		}
	}
	l := &layerReplay{e: e, rec: rec, plc: hashring.NewRCHPlacement(ring, replicas), itemID: make([]uint64, len(e.keys))}
	for id, k := range e.keys {
		l.itemID[id] = xhash.String(k)
	}
	return l
}

func (l *layerReplay) placement(reqs []op, m *metricSet) {
	buf := make([]int, 0, 8)
	var ns int64
	var keys int
	m0 := mallocs()
	for i := range reqs {
		if reqs[i].kind == opSet {
			continue
		}
		ids := l.e.st.keysOf(&reqs[i])
		start := time.Now()
		for _, id := range ids {
			buf = l.plc.Replicas(l.itemID[id], buf)
		}
		d := int64(time.Since(start))
		l.rec.replay(i, "hashring.replicas", start, d)
		ns += d
		keys += len(ids)
	}
	m.set("hashring.replicas_allocs_per_key", ratio(float64(mallocs()-m0), float64(keys)))
	m.set("hashring.replicas_ns_per_key", ratio(float64(ns), float64(keys)))
}

type planTotals struct{ reqs, txns, primaries, hitchhikers uint64 }

// keysPerTxn is the mean transaction size on the wire (hitchhikers
// ride along), at least one key.
func (p planTotals) keysPerTxn() int {
	if p.txns == 0 {
		return 1
	}
	return int(math.Max(1, math.Round(float64(p.primaries+p.hitchhikers)/float64(p.txns))))
}

func (l *layerReplay) planner(reqs []op, m *metricSet) planTotals {
	pl := core.NewPlanner(l.plc, core.Options{Hitchhike: true, DistinguishedSingles: true})
	var t planTotals
	var ns int64
	items := make([]uint64, 0, 64)
	m0 := mallocs()
	for i := range reqs {
		if reqs[i].kind != opGetMulti {
			continue
		}
		items = items[:0]
		for _, id := range l.e.st.keysOf(&reqs[i]) {
			items = append(items, l.itemID[id])
		}
		start := time.Now()
		plan, err := pl.Build(items, 0)
		d := int64(time.Since(start))
		l.rec.replay(i, "core.build", start, d)
		l.attempted++
		if err != nil {
			l.failed++
			continue
		}
		ns += d
		t.reqs++
		t.txns += uint64(len(plan.Transactions))
		for _, txn := range plan.Transactions {
			t.primaries += uint64(len(txn.Primary))
			t.hitchhikers += uint64(len(txn.Hitchhikers))
		}
	}
	n := float64(t.reqs)
	m.set("core.build_allocs_per_req", ratio(float64(mallocs()-m0), n))
	m.set("core.build_us_per_req", ratio(float64(ns)/1e3, n))
	m.set("core.planned_txns_per_req", ratio(float64(t.txns), n))
	m.set("core.keys_per_txn", ratio(float64(t.primaries), float64(t.txns)))
	m.set("core.hitchhikers_per_req", ratio(float64(t.hitchhikers), n))
	return t
}

// scratch times the transport and the store on one extra server, sized
// and loaded like tier server 0 (every key with a replica there, the
// distinguished ones pinned), so the tier itself is not disturbed.
// With wantTimings it also returns the server's phase timings over
// traced transactions, for workloads whose requests carry none.
func (l *layerReplay) scratch(txnKeys int, z sizes, wantTimings bool, m *metricSet) (rtts []obs.TxnRTT, err error) {
	e := l.e
	srv := memcache.NewServer(memcache.NewStore(e.storeCap))
	if err := serve(srv, e.portBase+scratchSlot); err != nil {
		return nil, err
	}
	defer srv.Close()
	store := srv.Store()
	var mine []int
	buf := make([]int, 0, 8)
	for id, k := range e.keys {
		buf = l.plc.Replicas(l.itemID[id], buf)
		for j, s := range buf {
			if s == 0 {
				// An unpinned copy the bounded store declines stays
				// virtual, as on the tier.
				_ = store.SetPinned(&memcache.Item{Key: k, Value: e.expect[id]}, j == 0)
				mine = append(mine, id)
			}
		}
	}
	addr := fmt.Sprintf("127.0.0.1:%d", e.portBase+scratchSlot)
	var conn memcache.Conn
	if e.sp.binary || e.sp.poolSize > 1 {
		conn, err = memcache.NewPool(addr, timeout, memcache.PoolConfig{Size: e.sp.poolSize, Binary: e.sp.binary})
	} else {
		conn, err = memcache.Dial(addr, timeout)
	}
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	next := 0
	batch := func(n int) (ids []int, keys []string) {
		for len(ids) < n {
			ids = append(ids, mine[next%len(mine)])
			keys = append(keys, e.keys[ids[len(ids)-1]])
			next++
		}
		return ids, keys
	}
	// check counts a reply holding a wrong value; a key missing from an
	// overbooked scratch store is an eviction, not a failure.
	check := func(ids []int, items map[string]*memcache.Item, err error) {
		l.attempted++
		if err != nil {
			l.failed++
			return
		}
		for _, id := range ids {
			if it := items[e.keys[id]]; it != nil && !bytes.Equal(it.Value, e.expect[id]) {
				l.failed++
				return
			}
		}
	}

	var getDur, setDur []int64
	m0 := mallocs()
	for i := 0; i < z.replayOps; i++ {
		ids, keys := batch(txnKeys)
		start := time.Now()
		items, err := conn.GetMulti(keys)
		getDur = append(getDur, int64(time.Since(start)))
		l.rec.replay(i, "memcache.conn_getmulti", start, getDur[i])
		check(ids, items, err)
	}
	// The loop's own slices are a handful of allocations per transaction
	// on both sides of any comparison.
	m.set("memcache.conn_allocs_per_txn", ratio(float64(mallocs()-m0), float64(z.replayOps)))
	m.set("memcache.conn_getmulti_p50_us", median(usOf(getDur)))
	for i := 0; i < z.replayOps; i++ {
		ids, keys := batch(1)
		start := time.Now()
		err := conn.Set(&memcache.Item{Key: keys[0], Value: e.expect[ids[0]]})
		setDur = append(setDur, int64(time.Since(start)))
		l.rec.replay(i, "memcache.conn_set", start, setDur[i])
		l.attempted++
		if err != nil && err != memcache.ErrNotStored {
			l.failed++
		}
	}
	m.set("memcache.conn_set_p50_us", median(usOf(setDur)))
	if wantTimings {
		conn.SetTracing(true)
		for i := 0; i < z.replayOps; i++ {
			ids, keys := batch(txnKeys)
			start := time.Now()
			items, queueNS, st, err := conn.TracedGetMulti(obs.TraceContext{TraceID: uint64(i + 1), Parent: 1}, keys)
			check(ids, items, err)
			if st != nil {
				rtts = append(rtts, obs.TxnRTT{Keys: len(keys), DurNS: int64(time.Since(start)), QueueNS: queueNS, ServerTimings: st})
			}
		}
	}

	const storeBatch = 16
	var getNS, setNS int64
	for i := 0; i < z.replayOps; i++ {
		ids, keys := batch(storeBatch)
		start := time.Now()
		for _, k := range keys {
			_, _ = store.Get(k) // a miss is an evicted copy, timed like a hit
		}
		d := int64(time.Since(start))
		l.rec.replay(i, "memcache.store_get", start, d)
		getNS += d
		start = time.Now()
		for j, k := range keys {
			_ = store.Set(&memcache.Item{Key: k, Value: e.expect[ids[j]]}) // declined when overbooked, as on the tier
		}
		d = int64(time.Since(start))
		l.rec.replay(i, "memcache.store_set", start, d)
		setNS += d
	}
	m.set("memcache.store_get_ns_per_key", ratio(float64(getNS), float64(z.replayOps*storeBatch)))
	m.set("memcache.store_set_ns_per_op", ratio(float64(setNS), float64(z.replayOps*storeBatch)))
	return rtts, nil
}

// calibrateServer re-derives the paper's premise on this server: sweep
// the transaction size against one server and fit time = fixed +
// per-item * k. The ratio says how much a tpr change is worth.
func calibrateServer(port int, seed int64, z sizes, m *metricSet) error {
	srv := memcache.NewServer(memcache.NewStore(0))
	if err := serve(srv, port); err != nil {
		return err
	}
	defer srv.Close()
	const keys = 10000
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	if err := memslap.Preload(addr, keys, valueLen, timeout); err != nil {
		return err
	}
	sweep, err := memslap.Sweep(memslap.Config{Addr: addr, Concurrency: 1, Keys: keys, ValueSize: valueLen, Seed: seed, Timeout: timeout},
		[]int{1, 4, 16, 64}, z.calibItems)
	if err != nil {
		return err
	}
	var pts []calibrate.Point
	for _, p := range sweep {
		pts = append(pts, calibrate.Point{K: p.TxnSize, TxnPerSec: p.Result.TransactionsPerSecond()})
	}
	model, err := calibrate.Fit(pts)
	if err != nil {
		return err
	}
	m.set("calibrate.txn_cost_us", model.Fixed*1e6)
	m.set("calibrate.item_cost_us", model.PerItem*1e6)
	m.set("calibrate.txn_to_item_ratio", ratio(model.Fixed, model.PerItem))
	return nil
}
