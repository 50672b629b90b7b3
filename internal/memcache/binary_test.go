package memcache

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

func startBinServer(t *testing.T, capacity int64) (*Server, *Client) {
	t.Helper()
	srv := NewServer(NewStore(capacity))
	return srv, dialTest(t, DialBinary, serveTest(t, srv, nil), 5*time.Second)
}

func TestBinarySetGet(t *testing.T) {
	_, cl := startBinServer(t, 0)
	if err := cl.Set(&Item{Key: "k", Value: []byte("v"), Flags: 1234}); err != nil {
		t.Fatal(err)
	}
	it, err := cl.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "v" || it.Flags != 1234 {
		t.Fatalf("round trip: %+v", it)
	}
	if it.CAS == 0 {
		t.Fatal("binary get returned no CAS token")
	}
	if _, err := cl.Get("missing"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("miss: %v", err)
	}
}

func TestBinaryMultiGetIsOneTransaction(t *testing.T) {
	srv, cl := startBinServer(t, 0)
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
		if err := cl.Set(&Item{Key: keys[i], Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	// Include two misses.
	reqKeys := append(append([]string(nil), keys...), "m1", "m2")
	before := cl.Transactions()
	items, err := cl.GetMulti(reqKeys)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 30 {
		t.Fatalf("got %d items", len(items))
	}
	if got := cl.Transactions() - before; got != 1 {
		t.Fatalf("multi-get used %d client transactions", got)
	}
	// Server side: hits/misses counted through the quiet batch.
	if srv.Stats().GetMisses.Load() != 2 {
		t.Fatalf("server misses = %d", srv.Stats().GetMisses.Load())
	}
}

func TestBinaryBinaryValuesSurvive(t *testing.T) {
	_, cl := startBinServer(t, 0)
	vals := [][]byte{{}, {0, 1, 2, 0x80, 0x81, 255}, []byte(strings.Repeat("z", 5000))}
	for i, v := range vals {
		key := fmt.Sprintf("b%d", i)
		if err := cl.Set(&Item{Key: key, Value: v}); err != nil {
			t.Fatal(err)
		}
		it, err := cl.Get(key)
		if err != nil || string(it.Value) != string(v) {
			t.Fatalf("value %d corrupted", i)
		}
	}
}

func TestBinaryAddReplaceDelete(t *testing.T) {
	_, cl := startBinServer(t, 0)
	if err := cl.Add(&Item{Key: "k", Value: []byte("1")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Add(&Item{Key: "k", Value: []byte("2")}); !errors.Is(err, ErrNotStored) {
		t.Fatalf("second add: %v", err)
	}
	if err := cl.Replace(&Item{Key: "k", Value: []byte("3")}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete("k"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestBinaryCAS(t *testing.T) {
	_, cl := startBinServer(t, 0)
	_ = cl.Set(&Item{Key: "k", Value: []byte("a")})
	it, err := cl.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	it.Value = []byte("b")
	if err := cl.CompareAndSwap(it); err != nil {
		t.Fatalf("cas with fresh token: %v", err)
	}
	it.Value = []byte("c")
	if err := cl.CompareAndSwap(it); !errors.Is(err, ErrCASConflict) {
		t.Fatalf("stale cas: %v", err)
	}
	// Set is unconditional whatever token the item carries, exactly like
	// the text protocol's set.
	it.Value = []byte("d")
	if err := cl.Set(it); err != nil {
		t.Fatal(err)
	}
	if got, err := cl.Get("k"); err != nil || string(got.Value) != "d" {
		t.Fatalf("unconditional set: %v %v", got, err)
	}
}

func TestBinarySetPinnedSurvivesPressure(t *testing.T) {
	_, cl := startBinServer(t, 8*1024)
	if err := cl.SetPinned(&Item{Key: "pin", Value: []byte("stay")}); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 200)
	for i := 0; i < 400; i++ {
		if err := cl.Set(&Item{Key: fmt.Sprintf("c%03d", i), Value: big}); err != nil {
			t.Fatal(err)
		}
	}
	if it, err := cl.Get("pin"); err != nil || string(it.Value) != "stay" {
		t.Fatalf("pinned entry lost: %v %v", it, err)
	}
}

func TestBinaryTouchFlushVersionStats(t *testing.T) {
	_, cl := startBinServer(t, 0)
	_ = cl.Set(&Item{Key: "k", Value: []byte("v")})
	if err := cl.Touch("k", 1000); err != nil {
		t.Fatal(err)
	}
	if err := cl.Touch("missing", 10); !errors.Is(err, ErrCacheMiss) {
		t.Fatalf("touch missing: %v", err)
	}
	v, err := cl.Version()
	if err != nil || !strings.Contains(v, "rnb-memcache") {
		t.Fatalf("version: %q %v", v, err)
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["curr_items"] != "1" {
		t.Fatalf("stats: %v", st)
	}
	if err := cl.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("k"); !errors.Is(err, ErrCacheMiss) {
		t.Fatal("flush did not flush")
	}
}

func TestBinaryAndTextShareOnePort(t *testing.T) {
	// The same listener serves both protocols: write with text, read
	// with binary and vice versa.
	_, bin := startBinServer(t, 0)
	text, err := Dial(bin.addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer text.Close()

	if err := text.Set(&Item{Key: "from-text", Value: []byte("t")}); err != nil {
		t.Fatal(err)
	}
	if it, err := bin.Get("from-text"); err != nil || string(it.Value) != "t" {
		t.Fatalf("text->binary: %v %v", it, err)
	}
	if err := bin.Set(&Item{Key: "from-bin", Value: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	if it, err := text.Get("from-bin"); err != nil || string(it.Value) != "b" {
		t.Fatalf("binary->text: %v %v", it, err)
	}
}

func TestBinaryUnknownOpcode(t *testing.T) {
	addr := serveTest(t, NewServer(NewStore(0)), nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := make([]byte, binHeaderLen)
	hdr[0] = binMagicReq
	hdr[1] = 0x7e // unassigned opcode
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	res := make([]byte, binHeaderLen)
	if _, err := readFullConn(conn, res); err != nil {
		t.Fatal(err)
	}
	if res[0] != binMagicRes {
		t.Fatalf("response magic 0x%02x", res[0])
	}
	if status := uint16(res[6])<<8 | uint16(res[7]); status != binStatusUnknownCmd {
		t.Fatalf("status 0x%04x, want unknown-command", status)
	}
}

func readFullConn(conn net.Conn, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := conn.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func TestBinaryGarbageHeaderDropsConn(t *testing.T) {
	addr := serveTest(t, NewServer(NewStore(0)), nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Valid magic, but body length that exceeds limits.
	hdr := make([]byte, binHeaderLen)
	hdr[0] = binMagicReq
	hdr[1] = binOpSet
	hdr[8], hdr[9], hdr[10], hdr[11] = 0xff, 0xff, 0xff, 0xff
	if _, err := conn.Write(hdr); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server kept the connection after an oversized frame")
	}
	// The server itself survives.
	cl, err := DialBinary(addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Set(&Item{Key: "ok", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryQuitClosesConn(t *testing.T) {
	addr := serveTest(t, NewServer(NewStore(0)), nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	// No client command issues quit, so drive the raw frame codec.
	w, r := bufio.NewWriter(conn), bufio.NewReader(conn)
	if err := writeBinFrame(w, binOpQuit, 1, 0, nil, "", nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var h binHeader
	if err := readBinHeader(r, &h); err != nil {
		t.Fatal(err)
	}
	if h.opcode != binOpQuit {
		t.Fatalf("unexpected opcode %d", h.opcode)
	}
	if _, err := r.ReadByte(); err != io.EOF {
		t.Fatalf("server kept the connection after quit: %v", err)
	}
}

func TestBinaryEmptyMultiGet(t *testing.T) {
	_, cl := startBinServer(t, 0)
	items, err := cl.GetMulti(nil)
	if err != nil || len(items) != 0 {
		t.Fatalf("empty multi-get: %v %v", items, err)
	}
	if _, err := cl.GetMulti([]string{"bad key"}); !errors.Is(err, ErrBadKey) {
		t.Fatalf("bad key: %v", err)
	}
}
