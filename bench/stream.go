package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"rnb/internal/graph"
	"rnb/internal/workload"
)

// clients is the closed loop's size: one load-generator goroutine per
// core of the 2-core box this benchmark is sized for, never more.
const clients = 2

const valueLen = 100

// Operation kinds of a request stream.
const (
	opGetMulti uint8 = iota
	opGet
	opSet
)

// op is one request: a multi-get (or point get) of ids[off:off+n], or
// a Set of a new version of key set.
type op struct {
	kind   uint8
	off, n int32
	set    int32
}

// stream is a seeded request stream, generated in full before any
// timing starts. ops[:warm] is the warm-up, the rest is measured.
type stream struct {
	universe int
	ops      []op
	ids      []int32
	warm     int
	sha      string
	// genSeconds is what generating and fingerprinting the stream took.
	genSeconds float64
}

func (s *stream) keysOf(o *op) []int32 { return s.ids[o.off : o.off+o.n] }

// sizes scales a run: the defaults are the benchmark, the smoke test
// shrinks them.
type sizes struct {
	graphFactor int // Slashdot-like graph scale-down (universe = 82168/factor)
	universe    int // key universe of the synthetic workloads (even)
	warm        int // warm-up requests (even)
	measured    int // measured requests generated; the loop wraps (even)
	layerReqs   int // requests of the fixed-count -layers passes
	replayOps   int // operations of each isolated layer replay
	calibItems  int // items per calibrate sweep point
	traceReqs   int // requests whose spans go to the trace file
	setups      int // set-ups per end-to-end run (setup_s is their median)
	spinIters   int // length of the host-noise sentinel's CPU spin
}

var benchSizes = sizes{
	graphFactor: 4, universe: 20000, warm: 20000, measured: 1 << 17,
	layerReqs: 20000, replayOps: 5000, calibItems: 40000, traceReqs: 200, setups: 3,
	spinIters: 20_000_000,
}

// spec is one workload: its tier, its client and its op stream.
type spec struct {
	name, why string
	servers   int
	// overbook > 0 bounds every store so the tier holds that multiple
	// of the user bytes; 0 leaves the stores unbounded.
	overbook float64
	binary   bool // inner client: binary protocol over the pool
	poolSize int
	proxy    bool // load goes through a memcache front over proxy.Proxy
	gen      func(seed int64, z sizes, n int) *stream
}

var specs = []spec{
	{
		name: "feed_bundle", servers: 16, gen: genFeed,
		why: "the paper's ego-network multi-gets: placement, set-cover planning and fan-out/assembly do most of the client work; bundling quality shows as tpr",
	},
	{
		name: "point_get", servers: 16, gen: genPoint,
		why: "one uniformly drawn key per request: the per-transaction path (codec, server parse/exec/flush) does all the work; planner and set cover are bypassed",
	},
	{
		name: "overbooked_mix", servers: 8, overbook: 1.5, gen: genOverbooked,
		why: "Zipf 16-key multi-gets with 10% Sets on a tier holding half the r=3 bytes: store set/evict, round-2 recovery, write-back and the r-fold write path",
	},
	{
		name: "proxy_pooled_binary", servers: 8, binary: true, poolSize: 2, proxy: true, gen: genProxy,
		why: "Appendix A's path, text front over rnbproxy over a pooled binary client: pool routing, bincodec, the server's quiet-get path and one extra hop",
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

func (s *stream) add(kind uint8, items []uint64, set int32) {
	o := op{kind: kind, off: int32(len(s.ids)), n: int32(len(items)), set: set}
	for _, it := range items {
		s.ids = append(s.ids, int32(it))
	}
	s.ops = append(s.ops, o)
}

// genFeed draws seeded ego requests from one fixed graph: the graph is
// the data set (who follows whom), the seed picks who asks. A graph per
// seed would move tpr by several percent between seeds, more than the
// bound it is held to.
func genFeed(seed int64, z sizes, n int) *stream {
	g := graph.ScaledSlashdotLike(1, z.graphFactor)
	gen := workload.NewEgoGenerator(g, seed)
	s := &stream{universe: g.NumNodes()}
	for i := 0; i < n; i++ {
		items := gen.Next().Items
		s.add(opGetMulti, items[:min(len(items), feedCap)], 0)
	}
	return s
}

// feedCap truncates an ego request to a feed page. The scaled-down
// graph has hubs following most of the universe: 0.01% of the requests
// would ask for 16 000 keys each and carry 40% of all keys, so whether
// a run met three or seven of them decided its every timing metric.
// The cap sits just above the stream's 99th percentile (115 keys).
const feedCap = 128

func genPoint(seed int64, z sizes, n int) *stream {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{universe: graph.SlashdotNodes / z.graphFactor}
	for i := 0; i < n; i++ {
		s.add(opGet, []uint64{uint64(rng.Intn(s.universe))}, 0)
	}
	return s
}

// genOverbooked gives each closed-loop client its own half of the key
// universe (request i uses partition i%clients), so a key has exactly
// one writer and no reader races it: the last acknowledged version of
// every key is known when a reply is checked.
func genOverbooked(seed int64, z sizes, n int) *stream {
	const k = 16
	rng := rand.New(rand.NewSource(seed))
	var gens [clients]*workload.ZipfGenerator
	for p := range gens {
		gens[p] = workload.NewZipfGenerator(z.universe/clients, k, 0.9, seed+int64(p)+1)
	}
	s := &stream{universe: z.universe}
	items := make([]uint64, k)
	for i := 0; i < n; i++ {
		p := i % clients
		for j, rank := range gens[p].Next().Items {
			items[j] = rank*clients + uint64(p)
		}
		if rng.Intn(10) == 0 {
			s.add(opSet, nil, int32(items[rng.Intn(k)]))
		} else {
			s.add(opGetMulti, items, 0)
		}
	}
	return s
}

func genProxy(seed int64, z sizes, n int) *stream {
	gen := workload.NewUniformGenerator(z.universe, 24, seed)
	s := &stream{universe: z.universe}
	for i := 0; i < n; i++ {
		s.add(opGetMulti, gen.Next().Items, 0)
	}
	return s
}

// generate builds the workload's stream for seed and fingerprints it.
func generate(sp *spec, seed int64, z sizes) *stream {
	start := time.Now()
	s := sp.gen(seed, z, z.warm+z.measured)
	s.warm = z.warm
	h := sha256.New()
	var b [13]byte
	for i := range s.ops {
		o := &s.ops[i]
		b[0] = o.kind
		binary.LittleEndian.PutUint32(b[1:], uint32(o.off))
		binary.LittleEndian.PutUint32(b[5:], uint32(o.n))
		binary.LittleEndian.PutUint32(b[9:], uint32(o.set))
		h.Write(b[:])
	}
	binary.Write(h, binary.LittleEndian, s.ids)
	s.sha = hex.EncodeToString(h.Sum(nil))
	s.genSeconds = time.Since(start).Seconds()
	return s
}

func keyName(id int) string { return fmt.Sprintf("user:%06d", id) }

// makeValue is the 100-byte value of key at version: both are embedded
// so a reply that belongs to another key or an older write is caught.
func makeValue(key string, version uint32) []byte {
	v := make([]byte, 0, valueLen)
	v = append(v, key...)
	v = append(v, '#')
	v = append(v, fmt.Sprintf("%010d", version)...)
	for len(v) < valueLen {
		v = append(v, 'x')
	}
	return v
}
