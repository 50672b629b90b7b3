package memcache

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"rnb/internal/obs"
)

// rawConn is a test's bare connection to a server: bytes in, bytes out,
// no client codec in between.
type rawConn struct {
	t *testing.T
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(5 * time.Second))
	return &rawConn{t: t, c: c, r: bufio.NewReader(c), w: bufio.NewWriter(c)}
}

// line sends text and returns the next reply line.
func (rc *rawConn) line(text string) string {
	rc.t.Helper()
	if _, err := rc.c.Write([]byte(text)); err != nil {
		rc.t.Fatal(err)
	}
	line, err := rc.r.ReadString('\n')
	if err != nil {
		rc.t.Fatalf("%q: %v", text, err)
	}
	return strings.TrimRight(line, "\r\n")
}

// frame sends one binary request frame without waiting for an answer.
func (rc *rawConn) frame(opcode byte, opaque uint32, cas uint64, extras []byte, key string, value []byte) {
	rc.t.Helper()
	if err := writeBinFrame(rc.w, opcode, opaque, cas, extras, key, value); err != nil {
		rc.t.Fatal(err)
	}
	if err := rc.w.Flush(); err != nil {
		rc.t.Fatal(err)
	}
}

// response reads one binary response frame, returning its header, key
// and value.
func (rc *rawConn) response() (binHeader, string, string) {
	rc.t.Helper()
	var h binHeader
	if err := readBinHeader(rc.r, &h); err != nil {
		rc.t.Fatal(err)
	}
	body := make([]byte, h.bodyLen)
	if _, err := io.ReadFull(rc.r, body); err != nil {
		rc.t.Fatal(err)
	}
	keyEnd := int(h.extraLen) + int(h.keyLen)
	return h, string(body[h.extraLen:keyEnd]), string(body[keyEnd:])
}

// TestBadKeyReplyTable pins the one error→reply table per wire format:
// an over-long key is refused with the same answer whichever verb
// carried it, because the reply is chosen by the error and not by the
// verb.
func TestBadKeyReplyTable(t *testing.T) {
	addr := serveTest(t, NewServer(NewStore(0)), nil)
	long := strings.Repeat("k", MaxKeyLen+1)

	text := dialRaw(t, addr)
	for _, cmd := range []string{
		"set " + long + " 0 0 1\r\nx\r\n",
		"cas " + long + " 0 0 1 7\r\nx\r\n",
		"incr " + long + " 1\r\n",
		"touch " + long + " 10\r\n",
		"delete " + long + "\r\n",
	} {
		if got := text.line(cmd); got != "CLIENT_ERROR bad key" {
			t.Errorf("text %s: %q, want %q", cmd[:strings.IndexByte(cmd, ' ')], got, "CLIENT_ERROR bad key")
		}
	}

	bin := dialRaw(t, addr)
	var store [8]byte
	var touch [4]byte
	var incr [20]byte
	copy(incr[16:], []byte{0xff, 0xff, 0xff, 0xff}) // binNoAutoCreate
	for _, f := range []struct {
		name   string
		opcode byte
		cas    uint64
		extras []byte
		value  []byte
	}{
		{"set", binOpSet, 0, store[:], []byte("x")},
		{"cas", binOpSet, 7, store[:], []byte("x")},
		{"incr", binOpIncrement, 0, incr[:], nil},
		{"touch", binOpTouch, 0, touch[:], nil},
		{"delete", binOpDelete, 0, nil, nil},
	} {
		bin.frame(f.opcode, 9, f.cas, f.extras, long, f.value)
		if h, _, _ := bin.response(); h.opcode != f.opcode || h.status != binStatusInvalidArgs {
			t.Errorf("binary %s: opcode 0x%02x status 0x%04x, want invalid-arguments", f.name, h.opcode, h.status)
		}
	}
}

// TestStatsSameListBothWires: binary stat serves what text stats
// serves — the registry's counters and gauges in its name order, memd_*
// under the bare memcached names — because both come from the one
// executor.
func TestStatsSameListBothWires(t *testing.T) {
	srv := NewServer(NewStore(0))
	addr := serveTest(t, srv, nil)
	var want []string
	srv.Registry().Scalars(func(name string, _ int64) { want = append(want, strings.TrimPrefix(name, "memd_")) })
	if fmt.Sprint(want) != "[bytes cmd_get cmd_set curr_connections curr_items evictions get_hits get_misses total_connections traced_transactions transactions]" {
		t.Fatalf("an rnbmemd server registers %v", want)
	}

	text := dialRaw(t, addr)
	var got []string
	for line := text.line("stats\r\n"); line != "END"; line = text.line("") {
		got = append(got, strings.Fields(line)[1])
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("text stats names %v, want %v", got, want)
	}

	bin := dialRaw(t, addr)
	bin.frame(binOpStat, 3, 0, nil, "", nil)
	got = got[:0]
	for {
		h, name, _ := bin.response()
		if h.opcode != binOpStat || h.opaque != 3 || h.status != binStatusOK {
			t.Fatalf("stat frame %+v", h)
		}
		if name == "" {
			break
		}
		got = append(got, name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("binary stat names %v, want %v", got, want)
	}
}

// TestTransactionCounting pins what ServerStats.Transactions counts on
// the binary wire, where one request can span frames: a quiet-get run
// counts once (its Noop is part of it), a standalone Noop counts once, a
// run cut short by a blocking command counts once for the run and once
// for the command, and a trace frame counts nothing.
func TestTransactionCounting(t *testing.T) {
	srv := NewServer(NewStore(0))
	bin := dialRaw(t, serveTest(t, srv, nil))
	var store [8]byte
	step := func(name string, want uint64, send func(), replies int) {
		t.Helper()
		before := srv.Stats().Transactions.Load()
		send()
		for i := 0; i < replies; i++ {
			bin.response()
		}
		if got := srv.Stats().Transactions.Load() - before; got != want {
			t.Errorf("%s: %d transactions, want %d", name, got, want)
		}
	}
	step("set", 1, func() { bin.frame(binOpSet, 0, 0, store[:], "a", []byte("1")) }, 1)
	step("quiet run + noop", 1, func() {
		bin.frame(binOpGetKQ, 0, 0, nil, "a", nil)
		bin.frame(binOpGetKQ, 1, 0, nil, "miss", nil)
		bin.frame(binOpNoop, 2, 0, nil, "", nil)
	}, 2)
	step("standalone noop", 1, func() { bin.frame(binOpNoop, 0, 0, nil, "", nil) }, 1)
	step("quiet run ended by a set", 2, func() {
		bin.frame(binOpGetKQ, 0, 0, nil, "a", nil)
		bin.frame(binOpSet, 1, 0, store[:], "b", []byte("2"))
	}, 2)
	var tc [16]byte
	tc[7], tc[15] = 1, 2
	step("trace frame + traced get", 1, func() {
		bin.frame(binOpTrace, 5, 0, tc[:], "", nil)
		bin.frame(binOpGetK, 6, 0, nil, "a", nil)
	}, 2)
	if got, want := srv.Stats().CmdGet.Load(), uint64(4); got != want {
		t.Errorf("cmd_get %d, want %d (one per key)", got, want)
	}
	if got, want := srv.Stats().CmdSet.Load(), uint64(2); got != want {
		t.Errorf("cmd_set %d, want %d (one per storage verb)", got, want)
	}

	// The same rules on the text wire: one per command line, nothing for
	// the trace prefix or a blank line.
	text := dialRaw(t, serveTest(t, srv, nil))
	before := srv.Stats().Transactions.Load()
	if got := text.line("\r\ntrace 1 2\r\nget a miss\r\n"); got != "VALUE a 0 1" {
		t.Fatalf("traced text get answered %q", got)
	}
	for _, want := range []string{"1", "END"} {
		if got := text.line(""); got != want {
			t.Fatalf("traced text get: %q, want %q", got, want)
		}
	}
	if got := text.line(""); !strings.HasPrefix(got, "TRACE 1 ") {
		t.Fatalf("no timing record after a traced get: %q", got)
	}
	if got := text.line("trace x\r\n"); got != "ERROR" {
		t.Fatalf("malformed trace prefix answered %q", got)
	}
	if got := srv.Stats().Transactions.Load() - before; got != 1 {
		t.Errorf("text: %d transactions, want 1", got)
	}
}

// TestServerSpanOpOneNameTable: a traced command's span is labelled
// from the command's one name table, so both wires agree by
// construction — "get_multi" for a multi-key get, the verb otherwise.
func TestServerSpanOpOneNameTable(t *testing.T) {
	for _, wire := range []struct {
		name string
		dial dialFunc
	}{{"text", Dial}, {"binary", DialBinary}} {
		t.Run(wire.name, func(t *testing.T) {
			srv := NewServer(NewStore(0))
			cl := dialTest(t, wire.dial, serveTest(t, srv, nil), 5*time.Second)
			cl.SetTracing(true)
			tc := obs.TraceContext{TraceID: 42, Parent: 1}
			for _, keys := range [][]string{{"a"}, {"a", "b", "c"}} {
				if _, _, st, err := cl.TracedGetMulti(tc, keys); err != nil || st == nil {
					t.Fatalf("traced get %v: %v, timings %v", keys, err, st)
				}
			}
			spans := srv.Recorder().Spans()
			if len(spans) != 2 {
				t.Fatalf("%d server spans, want 2", len(spans))
			}
			byKeys := map[int]string{}
			for _, sp := range spans {
				byKeys[sp.Keys] = sp.Op
			}
			if byKeys[1] != "get" || byKeys[3] != "get_multi" {
				t.Errorf("span ops by key count %v, want 1:get 3:get_multi", byKeys)
			}
		})
	}
}

// TestParseUintMatchesStrconv pins the one decimal parser — it reads
// numbers straight off the socket on both sides — to strconv.ParseUint's
// verdicts, for a string and for borrowed bytes alike.
func TestParseUintMatchesStrconv(t *testing.T) {
	inputs := []string{
		"", "0", "7", "007", "+1", "-1", " 1", "1 ", "1_0", "0x10", "1e3", "١",
		"2147483647", "2147483648", "4294967295", "4294967296",
		"9223372036854775807", "9223372036854775808",
		"18446744073709551615", "18446744073709551616", "99999999999999999999",
		"000000000000000000000000000001",
	}
	for _, in := range inputs {
		for _, bits := range []int{31, 32, 63, 64} {
			want, werr := strconv.ParseUint(in, 10, bits)
			got, err := parseUint(in, bits)
			gotB, errB := parseUint([]byte(in), bits)
			if (err != nil) != (werr != nil) || (errB != nil) != (werr != nil) {
				t.Errorf("parseUint(%q, %d): err %v / %v, strconv %v", in, bits, err, errB, werr)
				continue
			}
			if werr == nil && (got != want || gotB != want) {
				t.Errorf("parseUint(%q, %d) = %d / %d, want %d", in, bits, got, gotB, want)
			}
		}
	}
}
