package memcache

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rnb/internal/obs"
)

// The oracle: the per-item decode rule the reply slab replaced, kept
// verbatim — one Item, one key string and one data block per hit, merged
// into a map as decoded. The differential tests below require the slab
// to accept, reject and decode every reply exactly as this did.

func oracleReadValues(r *bufio.Reader, withCAS bool, out map[string]*Item) error {
	for {
		line, err := readClientLine(r)
		if err != nil {
			return err
		}
		if bytes.Equal(line, []byte("END")) {
			return nil
		}
		it, err := oracleReadValue(r, line, withCAS)
		if err != nil {
			return err
		}
		out[it.Key] = it
	}
}

func oracleReadValue(r *bufio.Reader, line []byte, withCAS bool) (*Item, error) {
	verb, rest := nextField(line)
	if !bytes.Equal(verb, []byte("VALUE")) {
		return nil, fmt.Errorf("memcache: unexpected response line %q", line)
	}
	key, rest := nextField(rest)
	flagsTok, rest := nextField(rest)
	sizeTok, rest := nextField(rest)
	var casTok []byte
	if withCAS {
		casTok, rest = nextField(rest)
	}
	if tail, _ := nextField(rest); len(key) == 0 || len(sizeTok) == 0 || len(tail) != 0 ||
		(withCAS && len(casTok) == 0) {
		return nil, fmt.Errorf("memcache: unexpected response line %q", line)
	}
	flags, err := parseUint(flagsTok, 32)
	if err != nil {
		return nil, err
	}
	size, err := parseUint(sizeTok, 31)
	if err != nil {
		return nil, err
	}
	if size > MaxValueLen {
		return nil, fmt.Errorf("memcache: VALUE header declares %d bytes (limit %d)", size, MaxValueLen)
	}
	it := &Item{Key: string(key), Flags: uint32(flags)}
	if withCAS {
		if it.CAS, err = parseUint(casTok, 64); err != nil {
			return nil, err
		}
	}
	data := make([]byte, size+2)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	if !bytes.HasSuffix(data, []byte("\r\n")) {
		return nil, fmt.Errorf("memcache: corrupt data block for %s", it.Key)
	}
	it.Value = data[:size]
	return it, nil
}

func oracleReadBinMultiGet(r *bufio.Reader, n int, out map[string]*Item) error {
	var h binHeader
	last := -1
	for {
		if err := readBinHeader(r, &h); err != nil {
			return err
		}
		switch h.opcode {
		case binOpNoop:
			if h.opaque != uint32(n) {
				return errBinDesync("noop opaque %d, want %d", h.opaque, n)
			}
			return discardBinBody(r, &h)
		case binOpGetKQ:
		default:
			return errBinDesync("opcode 0x%02x inside quiet-get pipeline", h.opcode)
		}
		if h.opaque >= uint32(n) || int(h.opaque) <= last {
			return errBinDesync("quiet-get opaque %d out of order (last %d, batch %d)", h.opaque, last, n)
		}
		last = int(h.opaque)
		if h.status != binStatusOK {
			if err := discardBinBody(r, &h); err != nil {
				return err
			}
			continue
		}
		if h.keyLen == 0 {
			return errBinDesync("quiet-get hit without key")
		}
		body := make([]byte, h.bodyLen)
		if _, err := io.ReadFull(r, body); err != nil {
			return err
		}
		it := &Item{
			Key:   string(body[h.extraLen : uint32(h.extraLen)+uint32(h.keyLen)]),
			Value: body[uint32(h.extraLen)+uint32(h.keyLen):],
			CAS:   h.cas,
		}
		if h.extraLen >= 4 {
			it.Flags = binary.BigEndian.Uint32(body[:4])
		}
		out[it.Key] = it
	}
}

// diffDecode decodes reply with the oracle and with the slab, through
// readers of bufSize bytes, and requires the same verdict: the same
// error text, or the same map (the last of a repeated key winning) and
// the same stream position. It returns the slab's items.
func diffDecode(t *testing.T, binaryWire bool, reply []byte, keys []string, withCAS bool, bufSize int) []Item {
	t.Helper()
	rOld := bufio.NewReaderSize(bytes.NewReader(reply), bufSize)
	rNew := bufio.NewReaderSize(bytes.NewReader(reply), bufSize)
	want := map[string]*Item{}
	var errOld, errNew error
	var items []Item
	if binaryWire {
		errOld = oracleReadBinMultiGet(rOld, len(keys), want)
		items, errNew = readBinMultiGet(rNew, keys)
	} else {
		errOld = oracleReadValues(rOld, withCAS, want)
		items, errNew = readValues(rNew, withCAS, keys)
	}
	if fmt.Sprint(errOld) != fmt.Sprint(errNew) {
		t.Fatalf("buf %d, reply %q: oracle error %v, slab error %v", bufSize, reply, errOld, errNew)
	}
	if errOld != nil {
		if items != nil {
			t.Fatalf("buf %d, reply %q: items returned beside error %v", bufSize, reply, errNew)
		}
		return nil
	}
	got := map[string]*Item{}
	for i := range items {
		got[items[i].Key] = &items[i]
		if v := items[i].Value; cap(v) != len(v) {
			t.Fatalf("buf %d, reply %q: item %d value not capacity-clipped (len %d cap %d)", bufSize, reply, i, len(v), cap(v))
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("buf %d, reply %q:\noracle %v\nslab   %v", bufSize, reply, want, got)
	}
	restOld, _ := io.ReadAll(rOld)
	restNew, _ := io.ReadAll(rNew)
	if !bytes.Equal(restOld, restNew) {
		t.Fatalf("buf %d, reply %q: oracle left %d bytes unread, slab %d", bufSize, reply, len(restOld), len(restNew))
	}
	return items
}

// bufSizes makes Buffered() tiny, partial and whole relative to the
// replies below (16 is bufio's minimum, 32 the least that holds a binary
// header; 64 KiB is what the exchangers use).
var bufSizes = []int{16, 32, 128, 4096, 64 << 10}

// textHit renders one VALUE block; cas < 0 leaves the token off.
func textHit(key string, flags uint32, value string, cas int64) string {
	if cas < 0 {
		return fmt.Sprintf("VALUE %s %d %d\r\n%s\r\n", key, flags, len(value), value)
	}
	return fmt.Sprintf("VALUE %s %d %d %d\r\n%s\r\n", key, flags, len(value), cas, value)
}

// TestSlabMatchesOracleText: canned text replies, well-formed and
// hostile, decode or fail exactly as the per-item rule did.
func TestSlabMatchesOracleText(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	long := string(bytes.Repeat([]byte("x"), 300))
	for _, tc := range []struct {
		name    string
		reply   string
		withCAS bool
	}{
		{"all hit in order", textHit("a", 1, "va", -1) + textHit("b", 2, "vb", -1) + textHit("c", 3, "vc", -1) + textHit("d", 4, "vd", -1) + "END\r\n", false},
		{"gets", textHit("a", 1, "va", 7) + textHit("c", 3, "vc", 1<<40) + "END\r\n", true},
		{"all miss", "END\r\n", false},
		{"misses skipped", textHit("b", 0, "vb", -1) + textHit("d", 0, long, -1) + "END\r\n", false},
		{"empty value", textHit("a", 0, "", -1) + textHit("b", 0, "vb", -1) + "END\r\n", false},
		{"key not requested", textHit("a", 0, "va", -1) + textHit("zzz", 9, "vz", -1) + textHit("b", 0, "vb", -1) + "END\r\n", false},
		{"duplicated key", textHit("a", 0, "first", -1) + textHit("a", 0, "second", -1) + textHit("b", 0, "vb", -1) + "END\r\n", false},
		{"out of order", textHit("c", 0, "vc", -1) + textHit("a", 0, "va", -1) + textHit("d", 0, "vd", -1) + "END\r\n", false},
		{"more hits than keys", textHit("a", 0, "1", -1) + textHit("b", 0, "2", -1) + textHit("c", 0, "3", -1) + textHit("d", 0, "4", -1) + textHit("e", 0, long, -1) + textHit("f", 0, "6", -1) + "END\r\n", false},
		{"sizes grow", textHit("a", 0, "1", -1) + textHit("b", 0, long, -1) + textHit("c", 0, long+long, -1) + "END\r\n", false},
		{"pipelined follower", textHit("a", 0, "va", -1) + "END\r\nSTORED\r\n", false},
		{"size over the cap", fmt.Sprintf("VALUE a 0 %d\r\n", MaxValueLen+1), false},
		{"size not a number", "VALUE a 0 1x\r\nv\r\nEND\r\n", false},
		{"size 31 bits", "VALUE a 0 2147483648\r\n", false},
		{"truncated block", textHit("a", 0, "va", -1) + "VALUE b 0 100\r\nshort", false},
		{"block without CRLF", "VALUE a 0 2\r\nvaXXEND\r\n", false},
		{"missing cas", textHit("a", 0, "va", -1) + "END\r\n", true},
		{"extra field", "VALUE a 0 2 1 1\r\nva\r\nEND\r\n", true},
		{"error line", textHit("a", 0, "va", -1) + "SERVER_ERROR out of memory\r\n", false},
		{"no END", textHit("a", 0, "va", -1), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, size := range bufSizes {
				diffDecode(t, false, []byte(tc.reply), keys, tc.withCAS, size)
			}
		})
	}
}

// TestSlabMatchesOracleBinary is the same for quiet-get pipelines.
func TestSlabMatchesOracleBinary(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	long := string(bytes.Repeat([]byte("x"), 300))
	flags := []byte{0, 0, 0, 5}
	hit := func(opaque uint32, key, value string) []byte {
		return binResFrame(binOpGetKQ, binStatusOK, opaque, uint64(opaque)+1, flags, key, value)
	}
	noop := func(opaque uint32) []byte { return binResFrame(binOpNoop, binStatusOK, opaque, 0, nil, "", "") }
	oversized := hit(0, "a", "va")
	binary.BigEndian.PutUint32(oversized[8:], MaxValueLen+6)
	for _, tc := range []struct {
		name   string
		frames [][]byte
	}{
		{"all hit in order", [][]byte{hit(0, "a", "va"), hit(1, "b", "vb"), hit(2, "c", long), hit(3, "d", ""), noop(4)}},
		{"all miss", [][]byte{noop(4)}},
		{"misses skipped", [][]byte{hit(1, "b", "vb"), hit(3, "d", long), noop(4)}},
		{"errored quiet get is a miss", [][]byte{hit(0, "a", "va"), binResFrame(binOpGetKQ, binStatusInternal, 1, 0, nil, "", "oops"), hit(2, "c", "vc"), noop(4)}},
		{"key not requested", [][]byte{hit(0, "a", "va"), hit(1, "zzz", "vz"), noop(4)}},
		{"duplicated key", [][]byte{hit(0, "a", "first"), hit(1, "a", "second"), noop(4)}},
		{"no flags", [][]byte{binResFrame(binOpGetKQ, binStatusOK, 0, 1, nil, "a", "va"), noop(4)}},
		{"long extras", [][]byte{binResFrame(binOpGetKQ, binStatusOK, 0, 1, []byte{0, 0, 1, 0, 9, 9, 9, 9}, "a", "va"), noop(4)}},
		{"long key", [][]byte{hit(0, string(bytes.Repeat([]byte("k"), 5000)), "va"), noop(4)}},
		{"pipelined follower", [][]byte{hit(0, "a", "va"), noop(4), binResFrame(binOpSet, binStatusOK, 0, 1, nil, "", "")}},
		{"opaque out of order", [][]byte{hit(2, "c", "vc"), hit(0, "a", "va"), noop(4)}},
		{"opaque repeated", [][]byte{hit(1, "b", "vb"), hit(1, "b", "vb"), noop(4)}},
		{"opaque beyond the request", [][]byte{hit(0, "a", "va"), hit(4, "e", "ve"), noop(4)}},
		{"noop opaque mismatch", [][]byte{hit(0, "a", "va"), noop(3)}},
		{"hit without key", [][]byte{binResFrame(binOpGetKQ, binStatusOK, 0, 1, flags, "", "va"), noop(4)}},
		{"foreign opcode", [][]byte{hit(0, "a", "va"), binResFrame(binOpSet, binStatusOK, 1, 1, nil, "", ""), noop(4)}},
		{"request magic", [][]byte{{binMagicReq, binOpGetKQ, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
		{"body over the cap", [][]byte{oversized}},
		{"truncated body", [][]byte{hit(0, "a", "va"), hit(1, "b", long)[:60]}},
		{"truncated header", [][]byte{hit(0, "a", "va"), noop(4)[:10]}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reply := bytes.Join(tc.frames, nil)
			for _, size := range bufSizes {
				diffDecode(t, true, reply, keys, true, size)
			}
		})
	}
}

// TestSlabMatchesOracleFuzzed drives both decoders with seeded random
// replies — a random subset of the request answered with values of
// random sizes, then, half the time, damaged by flipped bytes, a cut, a
// repeated or a transplanted span — through every buffer size.
func TestSlabMatchesOracleFuzzed(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	valueOf := func() string {
		n := rng.Intn(200)
		switch rng.Intn(20) {
		case 0:
			n = 0
		case 1:
			n = 3000 + rng.Intn(5000)
		}
		return string(bytes.Repeat([]byte{byte('a' + rng.Intn(26))}, n))
	}
	for round := 0; round < 1500; round++ {
		binaryWire := round%2 == 1
		withCAS := rng.Intn(2) == 0
		keys := make([]string, 1+rng.Intn(12))
		for i := range keys {
			keys[i] = fmt.Sprintf("k%d:%d", round, i)
		}
		var reply bytes.Buffer
		for i, k := range keys {
			if rng.Intn(4) == 0 {
				continue // a miss
			}
			if rng.Intn(25) == 0 {
				k = "other" // a key the request did not name
			}
			switch {
			case binaryWire:
				reply.Write(binResFrame(binOpGetKQ, binStatusOK, uint32(i), rng.Uint64(), []byte{0, 0, 0, byte(i)}, k, valueOf()))
			case withCAS:
				reply.WriteString(textHit(k, uint32(i), valueOf(), rng.Int63()))
			default:
				reply.WriteString(textHit(k, uint32(i), valueOf(), -1))
			}
		}
		if binaryWire {
			reply.Write(binResFrame(binOpNoop, binStatusOK, uint32(len(keys)), 0, nil, "", ""))
		} else {
			reply.WriteString("END\r\n")
		}
		b := reply.Bytes()
		if rng.Intn(2) == 0 {
			span := func() (int, int) {
				i := rng.Intn(len(b))
				return i, i + rng.Intn(len(b)-i+1)
			}
			switch rng.Intn(4) {
			case 0:
				for n := 1 + rng.Intn(3); n > 0; n-- {
					b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
				}
			case 1:
				b = b[:rng.Intn(len(b))]
			case 2:
				i, j := span()
				b = append(b[:j:j], b[i:]...) // b[i:j] twice
			case 3:
				i, j := span()
				at := rng.Intn(len(b))
				b = append(append(append([]byte(nil), b[:at]...), b[i:j]...), b[at:]...)
			}
		}
		for _, size := range bufSizes {
			diffDecode(t, binaryWire, b, keys, withCAS, size)
		}
	}
}

// TestSlabItemsDoNotAlias: the items of one reply share an array and an
// arena, and must still behave as values of their own — growing one
// item's Value leaves its neighbours alone, and Item.Key is the
// request's string, not a view of the caller's slice.
func TestSlabItemsDoNotAlias(t *testing.T) {
	for _, binaryWire := range []bool{false, true} {
		keys := []string{"alias:0", "alias:1", "alias:2"}
		var reply bytes.Buffer
		for i, k := range keys {
			if binaryWire {
				reply.Write(binResFrame(binOpGetKQ, binStatusOK, uint32(i), 1, []byte{0, 0, 0, 0}, k, "value-"+k))
			} else {
				reply.WriteString(textHit(k, 0, "value-"+k, -1))
			}
		}
		if binaryWire {
			reply.Write(binResFrame(binOpNoop, binStatusOK, uint32(len(keys)), 0, nil, "", ""))
		} else {
			reply.WriteString("END\r\n")
		}
		items := diffDecode(t, binaryWire, reply.Bytes(), keys, false, 64<<10)
		if len(items) != len(keys) {
			t.Fatalf("decoded %d items", len(items))
		}
		for i := range items {
			grown := append(items[i].Value, "-and-a-tail-longer-than-any-gap"...)
			grown[0] = '!'
			_ = grown
		}
		keys[0], keys[1], keys[2] = "x", "y", "z"
		for i, k := range []string{"alias:0", "alias:1", "alias:2"} {
			if items[i].Key != k || string(items[i].Value) != "value-"+k {
				t.Errorf("binary=%v item %d: %q = %q after its neighbours grew and the request's keys changed", binaryWire, i, items[i].Key, items[i].Value)
			}
		}
	}
}

// TestSlabKeysSurviveCallerReuse is the aliasing rule at the public
// seam: a caller may overwrite its keys slice as soon as a get returns.
func TestSlabKeysSurviveCallerReuse(t *testing.T) {
	eachWire(t, func(t *testing.T, dial dialFunc) {
		cl := dialTestServer(t, dial, nil, 5*time.Second)
		keys := []string{"reuse:0", "reuse:1"}
		for _, k := range keys {
			if err := cl.Set(&Item{Key: k, Value: []byte(k)}); err != nil {
				t.Fatal(err)
			}
		}
		var h Pending
		cl.SendGet(obs.TraceContext{}, keys, nil, &h)
		items, _, _, err := h.Collect()
		if err != nil || len(items) != 2 {
			t.Fatalf("%d items, err %v", len(items), err)
		}
		keys[0], keys[1] = "gone", "gone"
		for i, k := range []string{"reuse:0", "reuse:1"} {
			if items[i].Key != k || string(items[i].Value) != k {
				t.Errorf("item %d is %q = %q", i, items[i].Key, items[i].Value)
			}
		}
		one, err := cl.Get("reuse:1")
		if err != nil || one.Key != "reuse:1" || string(one.Value) != "reuse:1" || cap(one.Value) != len(one.Value) {
			t.Errorf("Get: %+v, err %v", one, err)
		}
	})
}

// TestSlabArenaIsSizedByArrivedBytes: no header, however large the
// request, sizes an allocation beyond the bytes in hand. A 1000-key
// request whose first hit declares the largest legal value, with nothing
// of it arrived, may cost that one value — not a thousand of them — and
// a length over the cap costs nothing at all.
func TestSlabArenaIsSizedByArrivedBytes(t *testing.T) {
	keys := make([]string, 1000)
	for i := range keys {
		keys[i] = fmt.Sprintf("big:%d", i)
	}
	binHit := binResFrame(binOpGetKQ, binStatusOK, 0, 1, nil, keys[0], "")
	binary.BigEndian.PutUint32(binHit[8:], uint32(len(keys[0]))+MaxValueLen)
	for _, tc := range []struct {
		name   string
		budget uint64
		decode func() error
	}{
		{"text, largest legal value", 2 * MaxValueLen, func() error {
			_, err := readValues(bufio.NewReaderSize(bytes.NewReader([]byte(fmt.Sprintf("VALUE big:0 0 %d\r\nxx", MaxValueLen))), 64), false, keys)
			return err
		}},
		{"text, over the cap", 64 << 10, func() error {
			_, err := readValues(bufio.NewReaderSize(bytes.NewReader([]byte("VALUE big:0 0 2147483647\r\nxx")), 64), false, keys)
			return err
		}},
		{"binary, largest legal value", 2 * MaxValueLen, func() error {
			_, err := readBinMultiGet(bufio.NewReaderSize(bytes.NewReader(binHit), 64), keys)
			return err
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded a reply that was cut short", tc.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > tc.budget {
			t.Errorf("%s: allocated %d bytes, budget %d", tc.name, grew, tc.budget)
		}
	}
}
