package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"rnb"
	"rnb/internal/memcache"
	"rnb/internal/obs"
	"rnb/internal/proxy"
)

const (
	replicas = 3
	timeout  = 10 * time.Second

	// Ring positions hash the server addresses, so the tier listens on
	// fixed loopback ports: the same seed then gives the same placement
	// and the same transaction counts. A taken port moves the whole
	// block (recorded as port_base).
	firstPortBase = 23400
	portStride    = 64
	portBlocks    = 16
	frontSlot     = 40 // proxy front server
	scratchSlot   = 41 // isolated Conn/Store replays
	calibSlot     = 42 // calibrate sweep
)

// serve starts srv on a fixed loopback port.
func serve(srv *memcache.Server, port int) error {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return err
	}
	go srv.Serve(ln) //nolint:errcheck // returns nil on Close; a dead server fails the run's requests
	return nil
}

// env is one workload's running system plus what the harness knows
// about it: the stream and the value every key must currently hold.
type env struct {
	sp       *spec
	st       *stream
	portBase int
	servers  []*memcache.Server
	addrs    []string
	storeCap int64

	client *rnb.Client      // the RnB client (behind the proxy, if any)
	proxy  *proxy.Proxy     // proxy workload only
	front  *memcache.Server // proxy workload only
	// fronts are the load generator's connections to the front, one
	// per closed-loop client.
	fronts []*memcache.Client
	// traceFront makes the front hop carry a trace context (-layers
	// pass B); traceSeq numbers those traces.
	traceFront bool
	traceSeq   uint64

	keys    []string
	expect  [][]byte // current value of every key
	version []uint32

	// Per-client scratch and tallies (index = client).
	scratch [clients][]string
	items   [clients]int
}

// startTier brings up the workload's servers on the first free port
// block.
func startTier(sp *spec, st *stream) (*env, error) {
	e := &env{sp: sp, st: st}
	if sp.overbook > 0 {
		userBytes := int64(st.universe) * itemBytes()
		e.storeCap = int64(sp.overbook * float64(userBytes) / float64(sp.servers))
	}
	var err error
	for b := 0; b < portBlocks; b++ {
		e.portBase = firstPortBase + b*portStride
		if err = e.listenAll(); err == nil {
			return e, nil
		}
		e.closeServers()
	}
	return nil, fmt.Errorf("no free port block: %w", err)
}

func (e *env) listenAll() error {
	for i := 0; i < e.sp.servers; i++ {
		srv := memcache.NewServer(memcache.NewStore(e.storeCap))
		if err := serve(srv, e.portBase+i); err != nil {
			return err
		}
		e.servers = append(e.servers, srv)
		e.addrs = append(e.addrs, fmt.Sprintf("127.0.0.1:%d", e.portBase+i))
	}
	return nil
}

func (e *env) closeServers() {
	for _, s := range e.servers {
		s.Close()
	}
	e.servers, e.addrs = nil, nil
}

// connect builds the workload's client (and proxy front) with extra
// options on the RnB client, replacing any previous one.
func (e *env) connect(extra ...rnb.Option) error {
	e.disconnect()
	opts := []rnb.Option{rnb.WithReplicas(replicas), rnb.WithTimeout(timeout)}
	if e.sp.binary {
		opts = append(opts, rnb.WithBinaryProtocol())
	}
	if e.sp.poolSize > 0 {
		opts = append(opts, rnb.WithPoolSize(e.sp.poolSize))
	}
	cl, err := rnb.NewClient(e.addrs, append(opts, extra...)...)
	if err != nil {
		return err
	}
	e.client = cl
	if !e.sp.proxy {
		return nil
	}
	e.proxy = proxy.New(cl)
	e.front = memcache.NewServerBackend(e.proxy)
	if err := serve(e.front, e.portBase+frontSlot); err != nil {
		return err
	}
	for i := 0; i < clients; i++ {
		c, err := memcache.Dial(fmt.Sprintf("127.0.0.1:%d", e.portBase+frontSlot), timeout)
		if err != nil {
			return err
		}
		e.fronts = append(e.fronts, c)
	}
	return nil
}

func (e *env) disconnect() {
	for _, c := range e.fronts {
		c.Close()
	}
	e.fronts = nil
	if e.front != nil {
		e.front.Close()
		e.front, e.proxy = nil, nil
	}
	if e.client != nil {
		e.client.Close()
		e.client = nil
	}
}

func (e *env) close() {
	e.disconnect()
	e.closeServers()
}

// eachClient runs fn once per closed-loop client and waits.
func eachClient(n int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// preload stores version 0 of every key through the RnB client (r
// copies, distinguished copy pinned), workers splitting the universe.
func (e *env) preload(workers int) error {
	n := e.st.universe
	e.keys = make([]string, n)
	e.expect = make([][]byte, n)
	e.version = make([]uint32, n)
	for id := range e.keys {
		e.keys[id] = keyName(id)
		e.expect[id] = makeValue(e.keys[id], 0)
	}
	errs := make([]error, workers)
	eachClient(workers, func(w int) {
		for id := w; id < n; id += workers {
			if err := e.client.Set(&rnb.Item{Key: e.keys[id], Value: e.expect[id]}); err != nil {
				errs[w] = fmt.Errorf("preload %s: %w", e.keys[id], err)
				return
			}
		}
	})
	return errors.Join(errs...)
}

// exec issues one request as client w and checks every returned value
// against the last acknowledged write of its key. Keys are preloaded
// and distinguished copies are pinned, so a missing key is a failure
// too.
func (e *env) exec(w int, o *op) bool {
	switch o.kind {
	case opGet:
		id := e.st.ids[o.off]
		it, err := e.client.Get(e.keys[id])
		if err != nil || !bytes.Equal(it.Value, e.expect[id]) {
			return false
		}
		e.items[w]++
		return true
	case opSet:
		id := o.set
		v := e.version[id] + 1
		val := makeValue(e.keys[id], v)
		if err := e.client.Set(&rnb.Item{Key: e.keys[id], Value: val}); err != nil {
			return false
		}
		e.version[id], e.expect[id] = v, val
		return true
	}
	ids := e.st.keysOf(o)
	keys := e.scratch[w][:0]
	for _, id := range ids {
		keys = append(keys, e.keys[id])
	}
	e.scratch[w] = keys
	var items map[string]*memcache.Item
	var err error
	switch {
	case e.traceFront:
		e.traceSeq++
		items, _, _, err = e.fronts[w].TracedGetMulti(obs.TraceContext{TraceID: e.traceSeq, Parent: e.traceSeq}, keys)
	case e.sp.proxy:
		items, err = e.fronts[w].GetMulti(keys)
	default:
		items, _, err = e.client.GetMulti(keys)
	}
	if err != nil || len(items) != len(ids) {
		return false
	}
	for _, id := range ids {
		it := items[e.keys[id]]
		if it == nil || !bytes.Equal(it.Value, e.expect[id]) {
			return false
		}
	}
	e.items[w] += len(ids)
	return true
}

// warmUp runs the stream's warm-up prefix untimed.
func (e *env) warmUp(workers int) (failed int) {
	fails := make([]int, workers)
	eachClient(workers, func(w int) {
		for i := w; i < e.st.warm; i += workers {
			if !e.exec(w, &e.st.ops[i]) {
				fails[w]++
			}
		}
	})
	for _, f := range fails {
		failed += f
	}
	return failed
}

// setUp is everything before the timed phase: stream generation,
// server start, preload and warm-up. Its duration is setup_s.
func setUp(sp *spec, seed int64, z sizes, workers int, extra ...rnb.Option) (*env, float64, error) {
	start := time.Now()
	st := generate(sp, seed, z)
	e, err := startTier(sp, st)
	if err != nil {
		return nil, 0, err
	}
	if err := e.connect(extra...); err != nil {
		e.close()
		return nil, 0, err
	}
	if err := e.preload(workers); err != nil {
		e.close()
		return nil, 0, err
	}
	if failed := e.warmUp(workers); failed > 0 {
		e.close()
		return nil, 0, fmt.Errorf("%s: %d warm-up requests failed", sp.name, failed)
	}
	return e, time.Since(start).Seconds(), nil
}

// tierStats sums the servers' own counters.
type tierStats struct {
	txns, sets, getKeys, hits, misses, evictions uint64
	bytes                                        int64
}

func (e *env) tierStats() tierStats {
	var t tierStats
	for _, s := range e.servers {
		st := s.Stats()
		t.txns += st.Transactions.Load()
		t.sets += st.CmdSet.Load()
		t.getKeys += st.CmdGet.Load()
		t.hits += st.GetHits.Load()
		t.misses += st.GetMisses.Load()
		t.evictions += s.Store().Evictions()
		t.bytes += s.Store().Bytes()
	}
	return t
}

func (e *env) tierTxns() (n uint64) {
	for _, s := range e.servers {
		n += s.Stats().Transactions.Load()
	}
	return n
}

func (t tierStats) sub(o tierStats) tierStats {
	return tierStats{
		txns: t.txns - o.txns, sets: t.sets - o.sets, getKeys: t.getKeys - o.getKeys, hits: t.hits - o.hits,
		misses: t.misses - o.misses, evictions: t.evictions - o.evictions, bytes: t.bytes,
	}
}
