package memcache

import (
	"bytes"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// fuzzTarget sends an arbitrary byte stream to a live server and
// verifies the server neither panics nor wedges: a well-behaved client
// must still be served afterwards.
func fuzzTarget(t *testing.T, data []byte) {
	t.Helper()
	srv := NewServer(NewStore(1 << 20))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(300 * time.Millisecond))
	_, _ = conn.Write(data)
	buf := make([]byte, 4096)
	for {
		if _, err := conn.Read(buf); err != nil {
			break
		}
	}
	conn.Close()

	cl, err := Dial(ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatalf("server unreachable after fuzz input: %v", err)
	}
	defer cl.Close()
	if err := cl.Set(&Item{Key: "alive", Value: []byte("yes")}); err != nil {
		t.Fatalf("server broken after fuzz input: %v", err)
	}
}

func FuzzTextProtocol(f *testing.F) {
	seeds := [][]byte{
		[]byte("get a b c\r\n"),
		[]byte("set k 0 0 3\r\nabc\r\n"),
		[]byte("set k 0 0 999999999\r\n"),
		[]byte("gets \r\ncas k 1 2 3 4\r\nxxx\r\n"),
		[]byte("delete\r\nstats\r\nversion\r\nquit\r\n"),
		[]byte("touch k -1\r\nflush_all noreply\r\n"),
		{0x80, 0x01, 0, 3, 8, 0, 0, 0, 0, 0, 0, 14, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		{0x80, 0xff, 0xff, 0xff},
		[]byte("set k 0 0 5 noreply\r\nab"),
		// Pipelined streams: many commands land in the server's read
		// buffer before it has answered the first — the shape the pooled
		// transport's batched flushes produce.
		[]byte("get a\r\nget b\r\nget c\r\nget d\r\nget e\r\n"),
		[]byte("set k 0 0 1\r\nx\r\nget k\r\ndelete k\r\nget k\r\nincr k 1\r\nversion\r\n"),
		[]byte("set a 0 0 0\r\n\r\nset b 0 0 2\r\nhi\r\ngets a b\r\ntouch a 9\r\nstats\r\n"),
		// Pipelined garbage: a framing error mid-stream must not wedge
		// the commands behind it (the server drops the conn; the client
		// resyncs by reconnecting).
		[]byte("get a\r\nBOGUS x y\r\nget b\r\n"),
		[]byte("set k 0 0 3\r\nabget c\r\nget d\r\n"),
		// Carried write-backs: unanswered adds in front of the command
		// that brought them — accepted, refused, ahead of a mutation of the
		// same key, malformed (answered despite noreply), cut short — in
		// both wire formats.
		[]byte("add k 0 0 1 noreply\r\nx\r\nget k\r\nadd k 0 0 1 noreply\r\ny\r\nadd j 0 0 1 noreply\r\nz\r\ndelete k\r\nget k j\r\n"),
		[]byte("add k 0 0 2 noreply\r\nx\r\nget k\r\nadd k 0 0 noreply\r\nget k\r\nadd k 0 0 5 noreply\r\nab"),
		bytes.Join([][]byte{
			binReqFrame(binOpAddQ, 0, make([]byte, 8), "k", "x"),
			binReqFrame(binOpAddQ, 0, make([]byte, 8), "k", "y"), // refused: answered
			binReqFrame(binOpGetKQ, 0, nil, "k", ""),
			binReqFrame(binOpAddQ, 0, make([]byte, 4), "j", "z"), // bad extras, cuts the quiet run
			binReqFrame(binOpNoop, 1, nil, "", ""),
			binReqFrame(binOpAddQ, 0, make([]byte, 8), "i", "cut short")[:30],
		}, nil),
		// A command line that fills the server's read buffer with no
		// newline: the line is continued on the heap, up to maxLineLen.
		[]byte("get " + strings.Repeat("k", 1<<16-4)),
		// Pipelined stores whose data blocks, read in place from the
		// server's buffer, cross a refill wherever the stream's reads
		// split it: the keys parsed before a block must survive the
		// buffer sliding under them. One per wire, each under the 64 KiB
		// cap below.
		[]byte("set a 1 0 30000\r\n" + strings.Repeat("x", 30000) + "\r\nadd b 2 0 20000 noreply\r\n" +
			strings.Repeat("y", 20000) + "\r\nappend a 0 0 9000\r\n" + strings.Repeat("z", 9000) +
			"\r\ncas a 3 0 4000 1\r\n" + strings.Repeat("w", 4000) + "\r\nincr b 1\r\nget a b\r\n"),
		bytes.Join([][]byte{
			binReqFrame(binOpSet, 0, make([]byte, 8), "a", strings.Repeat("x", 30000)),
			binReqFrame(binOpAddQ, 0, make([]byte, 8), "b", strings.Repeat("y", 20000)),
			binReqFrame(binOpAppend, 0, nil, "a", strings.Repeat("z", 9000)),
			binReqFrame(binOpPrepend, 0, nil, "b", strings.Repeat("w", 5000)),
			binReqFrame(binOpGetKQ, 1, nil, "a", ""),
			binReqFrame(binOpGetKQ, 2, nil, "b", ""),
			binReqFrame(binOpNoop, 3, nil, "", ""),
		}, nil),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		fuzzTarget(t, data)
	})
}

// FuzzPoolDemux attacks the pooled transport's response demultiplexer
// from the server side: a fake server answers every connection with an
// arbitrary byte stream while three concurrent multi-gets are in
// flight. Whatever the stream — truncated VALUE blocks, oversized
// declared lengths, interleaved garbage, empty replies — the pool must
// neither panic, nor hang past its deadline, nor leak its goroutines
// (Close must return).
func FuzzPoolDemux(f *testing.F) {
	seeds := [][]byte{
		[]byte("END\r\nEND\r\nEND\r\n"),
		[]byte("VALUE a 0 1\r\nx\r\nEND\r\nVALUE b 0 2\r\nhi\r\nEND\r\nEND\r\n"),
		[]byte("VALUE a 0 5\r\nab"),              // truncated data block
		[]byte("VALUE a 0 999999999\r\n"),        // hostile declared size
		[]byte("VALUE a zero 1\r\nx\r\nEND\r\n"), // unparsable header
		[]byte("STORED\r\nNOT_FOUND\r\nSERVER_ERROR out of memory\r\n"),
		[]byte("garbage\r\nmore garbage\r\nEND\r\n"),
		{},
		{0xff, 0xfe, 0x00, 0x0d, 0x0a},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			t.Skip()
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		// Fake server: drain whatever the client writes, answer with the
		// fuzz bytes, then hold the conn open (the client's deadline
		// bounds the wait).
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go func(conn net.Conn) {
					defer conn.Close()
					go func() {
						buf := make([]byte, 4096)
						for {
							if _, err := conn.Read(buf); err != nil {
								return
							}
						}
					}()
					conn.Write(data)
					time.Sleep(400 * time.Millisecond)
				}(conn)
			}
		}()
		p, err := NewPool(ln.Addr().String(), 150*time.Millisecond, PoolConfig{Size: 2})
		if err != nil {
			t.Skip() // accept raced the dial; nothing to fuzz
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Errors are expected — panics and hangs are the bugs.
				p.GetMulti([]string{"a", "b", "c"})
			}(g)
		}
		wg.Wait()
		if err := p.Close(); err != nil {
			t.Fatalf("pool close after demux fuzz: %v", err)
		}
	})
}

func FuzzStoreKeys(f *testing.F) {
	f.Add("key", "value")
	f.Add("", "")
	f.Add("a b", "v")
	f.Add(string([]byte{0, 1, 2}), "v")
	f.Fuzz(func(t *testing.T, key, value string) {
		s := NewStore(1 << 16)
		// Whatever the inputs, the store must not panic and must keep
		// its byte budget.
		_ = s.Set(&Item{Key: key, Value: []byte(value)})
		_, _ = s.Get(key)
		_ = s.Delete(key)
		if s.Bytes() > 1<<16 {
			t.Fatalf("store exceeded capacity: %d", s.Bytes())
		}
	})
}
