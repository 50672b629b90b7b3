//go:build !race

// Allocation-budget regression gates for the transport hot paths (run
// via `make bench-alloc`; excluded under -race because the race
// runtime's shadow allocations distort testing.AllocsPerRun).
package memcache

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// allocGate fails when fn's steady-state allocation count exceeds the
// budget. The measured value is logged so regressions show their size,
// and returned.
func allocGate(t *testing.T, name string, budget float64, fn func()) float64 {
	t.Helper()
	fn() // warm lazily initialized pools outside the measured window
	got := testing.AllocsPerRun(200, fn)
	t.Logf("%s: %.1f allocs/op (budget %.1f)", name, got, budget)
	if got > budget {
		t.Errorf("%s: %.1f allocs/op, budget %.1f", name, got, budget)
	}
	return got
}

// TestAllocBudgetEncode: command encoding — text and binary — must not
// allocate at all in steady state. The pooled writer loop calls these
// under its flush lock, so every alloc here is paid once per request on
// every connection.
func TestAllocBudgetEncode(t *testing.T) {
	w := bufio.NewWriter(io.Discard)
	keys := []string{"alloc:000", "alloc:001", "alloc:002", "alloc:003",
		"alloc:004", "alloc:005", "alloc:006", "alloc:007"}
	it := &Item{Key: "alloc:key", Value: bytes.Repeat([]byte("v"), 100), Flags: 7, Expiration: 60}

	allocGate(t, "text get encode", 0, func() {
		if err := writeKeysCmd(w, "get", keys); err != nil {
			t.Fatal(err)
		}
		w.Reset(io.Discard)
	})
	allocGate(t, "text set encode", 0, func() {
		if err := writeStoreCmd(w, "set", it); err != nil {
			t.Fatal(err)
		}
		w.Reset(io.Discard)
	})
	allocGate(t, "text incr encode", 0, func() {
		if err := writeIncrDecrCmd(w, "incr", "alloc:key", 42); err != nil {
			t.Fatal(err)
		}
		w.Reset(io.Discard)
	})
	allocGate(t, "binary multiget encode", 0, func() {
		if err := writeBinMultiGetCmd(w, keys); err != nil {
			t.Fatal(err)
		}
		w.Reset(io.Discard)
	})
	allocGate(t, "binary set encode", 0, func() {
		if err := writeBinStoreCmd(w, binOpSet, it, 0); err != nil {
			t.Fatal(err)
		}
		w.Reset(io.Discard)
	})
	allocGate(t, "binary incr encode", 0, func() {
		if err := writeBinIncrDecrCmd(w, binOpIncrement, "alloc:key", 42); err != nil {
			t.Fatal(err)
		}
		w.Reset(io.Discard)
	})
	// A deferred add is encoded into the connection's pending buffer,
	// which keeps its capacity: queuing a write-back allocates nothing.
	pending := make([]byte, 0, 512)
	allocGate(t, "text quiet add encode", 0, func() { pending = textCodec{}.appendQuietAdd(pending[:0], it) })
	allocGate(t, "binary quiet add encode", 0, func() { pending = binCodec{}.appendQuietAdd(pending[:0], it) })
}

// TestAllocBudgetDecode: decoding a multi-get reply costs two
// allocations however many items it carries — the reply's Item array
// and its value arena (key strings are the request's own) — and nothing
// for protocol framing. The 8-hit and the 64-hit reply must measure the
// same: a per-item allocation anywhere in a decode path fails here.
func TestAllocBudgetDecode(t *testing.T) {
	value := bytes.Repeat([]byte("v"), 100)
	rd := bytes.NewReader(nil)
	br := bufio.NewReaderSize(nil, 64<<10) // the exchangers' buffer size
	for _, wire := range []string{"text", "binary"} {
		var measured []float64
		for _, hits := range []int{8, 64} {
			// Render one canned reply naming every requested key.
			keys := make([]string, hits)
			var reply bytes.Buffer
			for i := range keys {
				keys[i] = fmt.Sprintf("alloc:%03d", i)
				if wire == "text" {
					fmt.Fprintf(&reply, "VALUE %s %d 100 %d\r\n%s\r\n", keys[i], i, i+1, value)
				} else {
					reply.Write(binResFrame(binOpGetKQ, binStatusOK, uint32(i), uint64(i+1), []byte{0, 0, 0, byte(i)}, keys[i], string(value)))
				}
			}
			if wire == "text" {
				reply.WriteString("END\r\n")
			} else {
				reply.Write(binResFrame(binOpNoop, binStatusOK, uint32(hits), 0, nil, "", ""))
			}
			name := fmt.Sprintf("%s multiget decode, %d hits", wire, hits)
			measured = append(measured, allocGate(t, name, 2, func() {
				rd.Reset(reply.Bytes())
				br.Reset(rd)
				var items []Item
				var err error
				if wire == "text" {
					items, err = readValues(br, true, keys)
				} else {
					items, err = readBinMultiGet(br, keys)
				}
				if err != nil || len(items) != hits {
					t.Fatalf("%s: decoded %d hits, err %v", name, len(items), err)
				}
			}))
		}
		if d := measured[1] - measured[0]; d > 1 || d < -1 {
			t.Errorf("%s multiget decode: %.1f allocs for 8 hits, %.1f for 64 — the cost grows with the reply", wire, measured[0], measured[1])
		}
	}
	stored := []byte("STORED\r\n")
	allocGate(t, "text store reply decode", 0, func() {
		rd.Reset(stored)
		br.Reset(rd)
		if err := readStatusReply(br, "STORED"); err != nil {
			t.Fatal(err)
		}
	})
	storedFrame := binResFrame(binOpSet, binStatusOK, 0, 1, nil, "", "")
	allocGate(t, "binary store reply decode", 0, func() {
		rd.Reset(storedFrame)
		br.Reset(rd)
		if err := readBinStatusReply(br, binOpSet); err != nil {
			t.Fatal(err)
		}
	})
}

// TestAllocBudgetRoundTrip bounds whole transactions end to end against
// a live server, on a one-connection and a four-connection client and
// both codecs: a 1-key and an 8-key GetMulti (all hits) and a Set.
// AllocsPerRun counts globally, so each budget covers the server's
// parse/exec/flush too. The one-connection text lane is the path most
// benchmark workloads run on; its budgets are exact, because one extra
// allocation per transaction there is a measurable end-to-end
// regression.
func TestAllocBudgetRoundTrip(t *testing.T) {
	for _, lane := range []struct {
		name           string
		pooled, binary bool
		get1, get8     float64
		set            float64
	}{
		// Measured values, exact. A multiget of any size pays the reply's
		// Item array, its value arena and the two allocations of the
		// result map on the client, the request's one string on the
		// server, and the GetMulti call's own. Routing among four
		// connections adds nothing: the request lives in a slot its
		// connection owns and the caller does its own round trip. The
		// 1-key and the 8-key budgets are equal on purpose: anything paid
		// per key, on either side of the wire, fails the 8-key gate.
		{name: "single text", get1: 6, get8: 6, set: 4},
		{name: "single binary", binary: true, get1: 6, get8: 6, set: 4},
		{name: "pooled text", pooled: true, get1: 6, get8: 6, set: 4},
		{name: "pooled binary", pooled: true, binary: true, get1: 6, get8: 6, set: 4},
	} {
		t.Run(lane.name, func(t *testing.T) {
			srv := NewServer(NewStore(0))
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			defer srv.Close()
			var c Conn
			switch {
			case lane.pooled:
				c, err = NewPool(ln.Addr().String(), 2*time.Second, PoolConfig{Size: 4, Binary: lane.binary})
			case lane.binary:
				c, err = DialBinary(ln.Addr().String(), 2*time.Second)
			default:
				c, err = Dial(ln.Addr().String(), 2*time.Second)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			keys := make([]string, 8)
			for i := range keys {
				keys[i] = fmt.Sprintf("alloc:%03d", i)
				if err := c.Set(&Item{Key: keys[i], Value: bytes.Repeat([]byte("v"), 100)}); err != nil {
					t.Fatal(err)
				}
			}
			multiget := func(keys []string) func() {
				return func() {
					items, err := c.GetMulti(keys)
					if err != nil {
						t.Fatal(err)
					}
					if len(items) != len(keys) {
						t.Fatalf("%d items", len(items))
					}
				}
			}
			allocGate(t, lane.name+" 1-key multiget", lane.get1, multiget(keys[:1]))
			allocGate(t, lane.name+" 8-key multiget", lane.get8, multiget(keys))
			it := &Item{Key: "alloc:set", Value: bytes.Repeat([]byte("v"), 100)}
			allocGate(t, lane.name+" set", lane.set, func() {
				if err := c.Set(it); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// pipeListener hands a Server the far ends of in-memory connections, so
// a test can drive the real accept → sniff → serve path with no socket.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}
func (l *pipeListener) Close() error   { l.once.Do(func() { close(l.done) }); return nil }
func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// TestAllocBudgetServe bounds the server's share of a transaction on its
// own: canned request bytes go down an in-memory connection to a live
// Server and the reply is read back raw, so no client codec, exchanger
// or socket allocates inside the measured window. The request path
// reuses its request, key slice and reply scratch per connection, and
// the store answers a get by position with no map in between; the
// budgets are what it measures, 1/1/4 on both wires — a get of any size
// costs the one string its keys are cut from (the text command line, the
// binary run's collected key bytes) — so a per-verb handler that splits
// a line into fresh strings, or a quiet-get run that makes a string per
// frame, fails here.
func TestAllocBudgetServe(t *testing.T) {
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("alloc:%03d", i)
	}
	value := bytes.Repeat([]byte("v"), 100)
	it := &Item{Key: "alloc:set", Value: value}
	encode := func(fn func(w *bufio.Writer) error) []byte {
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := fn(w); err != nil {
			t.Fatal(err)
		}
		w.Flush()
		return buf.Bytes()
	}
	textGet := func(ks []string) []byte {
		return encode(func(w *bufio.Writer) error { return writeKeysCmd(w, "get", ks) })
	}
	binGet := func(ks []string) []byte {
		return encode(func(w *bufio.Writer) error { return writeBinMultiGetCmd(w, ks) })
	}
	for _, lane := range []struct {
		name            string
		get1, get8, set []byte
		getEnd          func(n int) []byte // the bytes that end an n-key get reply
		setEnd          []byte
		bGet1, bGet8    float64
		bSet            float64
	}{
		{
			name: "text", get1: textGet(keys[:1]), get8: textGet(keys),
			set:    encode(func(w *bufio.Writer) error { return writeStoreCmd(w, "set", it) }),
			getEnd: func(int) []byte { return []byte("END\r\n") }, setEnd: []byte("STORED\r\n"),
			bGet1: 1, bGet8: 1, bSet: 4,
		},
		{
			name: "binary", get1: binGet(keys[:1]), get8: binGet(keys),
			set:    encode(func(w *bufio.Writer) error { return writeBinStoreCmd(w, binOpSet, it, 0) }),
			getEnd: func(n int) []byte { return binResFrame(binOpNoop, binStatusOK, uint32(n), 0, nil, "", "") },
			setEnd: binResFrame(binOpSet, binStatusOK, 0, 0, nil, "", ""),
			bGet1:  1, bGet8: 1, bSet: 4,
		},
	} {
		t.Run(lane.name, func(t *testing.T) {
			srv := NewServer(NewStore(0))
			ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
			go srv.Serve(ln)
			defer srv.Close()
			for _, k := range keys {
				if err := srv.Store().Set(&Item{Key: k, Value: value}); err != nil {
					t.Fatal(err)
				}
			}
			near, far := net.Pipe()
			defer near.Close()
			ln.conns <- far
			buf := make([]byte, 0, 4096)
			// exchange sends one canned request and reads its reply: until
			// end shows up the first time, by length once that is known.
			exchange := func(req, end []byte) func() {
				n := 0
				return func() {
					if _, err := near.Write(req); err != nil {
						t.Fatal(err)
					}
					if n > 0 {
						if _, err := io.ReadFull(near, buf[:n]); err != nil {
							t.Fatal(err)
						}
						return
					}
					for got := buf[:0]; !bytes.HasSuffix(got, end); n = len(got) {
						m, err := near.Read(got[len(got):cap(got)])
						if err != nil {
							t.Fatal(err)
						}
						got = got[:len(got)+m]
					}
				}
			}
			allocGate(t, lane.name+" serve 1-key get", lane.bGet1, exchange(lane.get1, lane.getEnd(1)))
			allocGate(t, lane.name+" serve 8-key get", lane.bGet8, exchange(lane.get8, lane.getEnd(8)))
			allocGate(t, lane.name+" serve set", lane.bSet, exchange(lane.set, lane.setEnd))
		})
	}
}
