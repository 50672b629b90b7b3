package memcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// binResFrame assembles one binary response frame for fuzz seeds.
func binResFrame(opcode byte, status uint16, opaque uint32, cas uint64, extras []byte, key, value string) []byte {
	body := len(extras) + len(key) + len(value)
	b := make([]byte, 24, 24+body)
	b[0] = binMagicRes
	b[1] = opcode
	binary.BigEndian.PutUint16(b[2:], uint16(len(key)))
	b[4] = byte(len(extras))
	binary.BigEndian.PutUint16(b[6:], status)
	binary.BigEndian.PutUint32(b[8:], uint32(body))
	binary.BigEndian.PutUint32(b[12:], opaque)
	binary.BigEndian.PutUint64(b[16:], cas)
	b = append(b, extras...)
	b = append(b, key...)
	b = append(b, value...)
	return b
}

// binReqFrame assembles one binary request frame for fuzz seeds.
func binReqFrame(opcode byte, opaque uint32, extras []byte, key, value string) []byte {
	b := binResFrame(opcode, 0, opaque, 0, extras, key, value)
	b[0] = binMagicReq
	return b
}

// FuzzBinaryDemux is FuzzPoolDemux's twin for the quiet-get transport:
// a fake server answers every connection with an arbitrary byte stream
// while three concurrent binary multi-gets are in flight. Whatever the
// stream — bad magic, truncated extras, oversized declared body
// lengths, misordered opaques, wrong opcodes — the pool must neither
// panic, nor hang past its deadline, nor leak goroutines (Close must
// return).
func FuzzBinaryDemux(f *testing.F) {
	hit := func(opaque uint32, key, val string) []byte {
		return binResFrame(binOpGetKQ, binStatusOK, opaque, 1, []byte{0, 0, 0, 0}, key, val)
	}
	noop := func(opaque uint32) []byte {
		return binResFrame(binOpNoop, binStatusOK, opaque, 0, nil, "", "")
	}
	refused := func() []byte {
		return binResFrame(binOpAddQ, binStatusNotStored, 0, 0, nil, "", "Not stored")
	}
	cat := func(frames ...[]byte) []byte { return bytes.Join(frames, nil) }
	seeds := [][]byte{
		cat(hit(0, "a", "x"), hit(1, "b", "y"), noop(3)),
		cat(noop(3), noop(3), noop(3)),
		cat(hit(2, "c", "z"), hit(0, "a", "x"), noop(3)), // opaque misorder
		cat(hit(7, "a", "x"), noop(3)),                   // opaque out of range
		hit(0, "a", "x")[:20],                            // truncated header
		cat(hit(0, "a", "x")[:25]),                       // truncated extras
		func() []byte { // oversized declared bodyLen
			b := hit(0, "a", "x")
			binary.BigEndian.PutUint32(b[8:], 0xffffffff)
			return b
		}(),
		func() []byte { // request magic where a response belongs
			b := cat(hit(0, "a", "x"), noop(3))
			b[0] = binMagicReq
			return b
		}(),
		cat(binResFrame(binOpSet, binStatusOK, 0, 0, nil, "", ""), noop(3)), // wrong opcode
		cat(hit(0, "a", "x"), binResFrame(binOpGetKQ, binStatusNotFound, 1, 0, nil, "", ""), noop(3)),
		{},
		{0xff, 0xfe, 0x00, 0x0d, 0x0a},
		[]byte("VALUE a 0 1\r\nx\r\nEND\r\n"), // text reply on a binary conn
		// Error frames of carried quiet adds, interleaved with the reply:
		// one or two ahead of it (what the single connection below may
		// skip), one too many, one in the middle of the run, one claiming
		// success, one with a hostile body length.
		cat(refused(), hit(0, "a", "x"), noop(3)),
		cat(refused(), refused(), hit(0, "a", "x"), hit(2, "c", "z"), noop(3)),
		cat(refused(), refused(), refused(), noop(3)),
		cat(hit(0, "a", "x"), refused(), noop(3)),
		cat(binResFrame(binOpAddQ, binStatusOK, 0, 0, nil, "", ""), noop(3)),
		func() []byte {
			b := cat(refused(), noop(3))
			binary.BigEndian.PutUint32(b[8:], 0xffffffff)
			return b
		}(),
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
		p, err := NewPool(ln.Addr().String(), 150*time.Millisecond, PoolConfig{Size: 2, Binary: true})
		if err != nil {
			t.Skip() // accept raced the dial; nothing to fuzz
		}
		var wg sync.WaitGroup
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// Errors are expected — panics and hangs are the bugs.
				p.GetMulti([]string{"a", "b", "c"})
			}()
		}
		wg.Wait()
		if err := p.Close(); err != nil {
			t.Fatalf("pool close after binary demux fuzz: %v", err)
		}
		// The same bytes against a single connection that carried two
		// quiet adds in front of its multi-get, so its decode is entitled
		// to skip up to two AddQ error frames: whatever follows them, it
		// returns (an error is fine) within its deadline.
		if cl, err := DialBinary(ln.Addr().String(), 150*time.Millisecond); err == nil {
			freezeClock(cl)
			cl.AddLater(&Item{Key: "wb1", Value: []byte("v")})
			cl.AddLater(&Item{Key: "wb2", Value: []byte("v")})
			cl.GetMulti([]string{"a", "b", "c"})
			cl.Close()
		}
	})
}

// FuzzCrossProtocol decodes the fuzz input as an operation script and
// replays it over a four-connection text client, a four-connection
// binary client and a one-connection binary client, each against its
// own server. Whatever the script, every op must land in the same result
// bucket on every lane and the final store states must be identical —
// the fuzz-shaped version of TestTransportDifferential. Op 10 is
// AddLater alone: the one-connection client queues it for whichever op
// the script runs next to carry (an AddQ in front of a set, a delete, an
// incr of the same key...), the others acknowledge it on the spot, and
// all three must agree from then on.
func FuzzCrossProtocol(f *testing.F) {
	f.Add([]byte{0, 0, 10, 9, 1, 0, 5, 0, 0, 6, 1, 99})
	f.Add([]byte{2, 3, 0, 3, 3, 0, 4, 3, 0, 9, 0, 0})
	f.Add([]byte{6, 0, 7, 5, 0, 200, 6, 0, 255, 7, 1, 0, 8, 2, 0})
	f.Add([]byte{1, 4, 4, 2, 4, 4, 0, 4, 0, 5, 4, 5, 9, 4, 0})
	f.Add([]byte{10, 1, 65, 9, 1, 0, 0, 2, 3, 10, 2, 66, 10, 3, 67, 7, 2, 0, 9, 1, 0})    // accepted, refused, in front of a delete of its key
	f.Add([]byte{0, 5, 49, 10, 5, 50, 5, 5, 1, 10, 6, 51, 3, 6, 9, 10, 7, 52, 10, 7, 53}) // in front of incr and append; two still queued at the end
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 300 {
			t.Skip()
		}
		lanes := make([]transportLane, 3)
		for i, name := range []string{"text size=4", "binary size=4", "binary size=1"} {
			addr, store := startLaneServer(t)
			var cl *Client
			switch i {
			case 0:
				cl = newTestPool(t, addr, PoolConfig{Size: 4})
			case 1:
				cl = newBinPool(t, addr, PoolConfig{Size: 4})
			case 2:
				cl = newSingleConn(t, addr, true)
			}
			freezeClock(cl)
			lanes[i] = transportLane{name: name, conn: cl, store: store}
		}
		ref := lanes[0]

		const population = 8
		key := func(b byte) string { return fmt.Sprintf("fz:%d", b%population) }
		apply := func(c Conn, op [3]byte) (string, string) {
			k := key(op[1])
			switch op[0] % 11 {
			case 10:
				// Refused-or-stored is the pools' to report and the single
				// connection's to find out later; the ops after must agree.
				if err := c.AddLater(&Item{Key: k, Value: []byte{'L', op[2]}}); IsConnFatal(err) {
					return errBucket(err), ""
				}
				return "later", ""
			case 0:
				v := bytes.Repeat([]byte{op[2]}, int(op[2])%64)
				return errBucket(c.Set(&Item{Key: k, Value: v, Flags: uint32(op[2])})), ""
			case 1:
				return errBucket(c.Add(&Item{Key: k, Value: []byte{op[2]}})), ""
			case 2:
				return errBucket(c.Replace(&Item{Key: k, Value: []byte{op[2], op[2]}})), ""
			case 3:
				return errBucket(c.Append(k, []byte{'A', op[2]})), ""
			case 4:
				return errBucket(c.Prepend(k, []byte{'P', op[2]})), ""
			case 5:
				v, err := c.Incr(k, uint64(op[2]))
				if err != nil {
					return errBucket(err), ""
				}
				return "ok", fmt.Sprintf("%d", v)
			case 6:
				v, err := c.Decr(k, uint64(op[2]))
				if err != nil {
					return errBucket(err), ""
				}
				return "ok", fmt.Sprintf("%d", v)
			case 7:
				return errBucket(c.Delete(k)), ""
			case 8:
				return errBucket(c.Touch(k, 3600)), ""
			default:
				items, err := c.GetMulti([]string{k, key(op[1] + 1), key(op[1] + 2)})
				if err != nil {
					return errBucket(err), ""
				}
				var buf bytes.Buffer
				for i := byte(0); i < 3; i++ {
					if it, ok := items[key(op[1]+i)]; ok {
						fmt.Fprintf(&buf, "%s=%d:%d;", key(op[1]+i), len(it.Value), it.Flags)
					}
				}
				return "ok", buf.String()
			}
		}

		for i := 0; i+3 <= len(script); i += 3 {
			var op [3]byte
			copy(op[:], script[i:i+3])
			tb, tpay := apply(ref.conn, op)
			for _, lane := range lanes[1:] {
				if bb, bpay := apply(lane.conn, op); tb != bb || tpay != bpay {
					t.Fatalf("op %d %v: %s (%s, %q) vs %s (%s, %q)", i/3, op, ref.name, tb, tpay, lane.name, bb, bpay)
				}
			}
		}
		allKeys := make([]string, population)
		for i := range allKeys {
			allKeys[i] = key(byte(i))
		}
		want, err := ref.conn.GetMulti(allKeys)
		if err != nil {
			t.Fatal(err)
		}
		for _, lane := range lanes[1:] {
			// The sweep first: it carries whatever the lane still has queued.
			got, err := lane.conn.GetMulti(allKeys)
			if err != nil {
				t.Fatal(err)
			}
			if ref.store.Len() != lane.store.Len() || ref.store.Bytes() != lane.store.Bytes() {
				t.Fatalf("store state diverged: %s %d items/%d bytes, %s %d items/%d bytes", ref.name,
					ref.store.Len(), ref.store.Bytes(), lane.name, lane.store.Len(), lane.store.Bytes())
			}
			if len(got) != len(want) {
				t.Fatalf("final sweep: %s %d keys, %s %d", ref.name, len(want), lane.name, len(got))
			}
			for k, w := range want {
				g, ok := got[k]
				if !ok || !bytes.Equal(g.Value, w.Value) || g.Flags != w.Flags {
					t.Fatalf("final state: %s diverged on %s", lane.name, k)
				}
			}
		}
	})
}
