package memcache

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rnb/internal/leakcheck"
	"rnb/internal/obs"
)

// The tests here pin the item windows of SendGet: a caller fanning out
// to many servers hands each transaction a capacity-clipped window of
// one item array, and a reply is decoded into its own window only —
// whoever decodes it, however the server misbehaves.

// nextWindow is what the window after the one under test holds: the
// next transaction's items, already decoded. Each call builds fresh
// memory, so one copy can be compared with another.
func nextWindow() []Item {
	return []Item{
		{Key: "next:0", Value: []byte("next-value-0"), Flags: 1, CAS: 2},
		{Key: "next:1", Value: []byte("next-value-1"), Flags: 3, CAS: 4},
	}
}

// TestReplyWindowIsolation: a reply that outruns its request — a server
// repeating a key, or naming one nobody asked for — reallocates its own
// items, and the next window of the same array stays byte-identical. A
// reply that fits is decoded in place. On the binary wire a reply cannot
// outrun its request, since quiet-get i answers with opaque i: a frame
// past the last is a desync, refused before it touches memory, and the
// one replay (which meets the same reply) decodes into fresh memory.
func TestReplyWindowIsolation(t *testing.T) {
	text := func(hits ...string) []byte {
		var b []byte
		for i := 0; i < len(hits); i += 2 {
			b = append(b, textHit(hits[i], 0, hits[i+1], -1)...)
		}
		return append(b, "END\r\n"...)
	}
	bin := func(hits ...string) []byte {
		var b []byte
		for i := 0; i < len(hits); i += 2 {
			b = append(b, binResFrame(binOpGetKQ, binStatusOK, uint32(i/2), 1, []byte{0, 0, 0, 0}, hits[i], hits[i+1])...)
		}
		return append(b, binResFrame(binOpNoop, binStatusOK, 2, 0, nil, "", "")...)
	}
	for _, tc := range []struct {
		name   string
		binary bool
		reply  []byte
		want   []string // key, value, ... in reply order; nil: the reply is refused
	}{
		{"text fits", false, text("a", "va", "b", "vb"), []string{"a", "va", "b", "vb"}},
		{"text repeated key", false, text("a", "va", "a", "va2", "b", "vb"), []string{"a", "va", "a", "va2", "b", "vb"}},
		{"text unasked key", false, text("a", "va", "zz", "vz", "b", "vb"), []string{"a", "va", "zz", "vz", "b", "vb"}},
		{"binary repeated key", true, bin("a", "va", "a", "va2"), []string{"a", "va", "a", "va2"}},
		{"binary unasked key", true, bin("zz", "vz", "b", "vb"), []string{"zz", "vz", "b", "vb"}},
		{"binary outrun refused", true, bin("a", "va", "b", "vb", "a", "va3"), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bs := newByteServer(t, tc.reply, tc.reply) // the second answers the replay
			dial := Dial
			if tc.binary {
				dial = DialBinary
			}
			cl := dialTest(t, dial, bs.addr, 5*time.Second)
			arr := make([]Item, 4)
			copy(arr[2:], nextWindow())
			var h Pending
			cl.SendGet(obs.TraceContext{}, []string{"a", "b"}, arr[0:0:2], &h)
			items, _, _, err := h.Collect()
			if !reflect.DeepEqual(arr[2:], nextWindow()) {
				t.Fatalf("the next window changed: %+v", arr[2:])
			}
			if tc.want == nil {
				if err == nil || items != nil {
					t.Fatalf("outrunning reply decoded: %d items, err %v", len(items), err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, it := range items {
				got = append(got, it.Key, string(it.Value))
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("items %q, want %q", got, tc.want)
			}
			if inPlace := &items[0] == &arr[0]; inPlace != (len(items) <= 2) {
				t.Fatalf("%d items for a window of 2: decoded in place = %v", len(items), inPlace)
			}
		})
	}
}

// TestReplyWindowReadAhead: two goroutines share one connection and
// windows of one item array, and one decodes the other's reply into the
// other's window — in the even rounds always (the second sender finds
// the first's reply owed and reads it before it writes), in the odd
// ones whenever a collector's read-ahead finds it buffered. Under -race
// this is the proof that a window is written by the decoding goroutine
// and read by its owner with a happens-before edge between them; every
// value is verified, and every item must sit in its owner's window.
func TestReplyWindowReadAhead(t *testing.T) {
	t.Run("text", func(t *testing.T) { windowReadAhead(t, false) })
	t.Run("binary", func(t *testing.T) { windowReadAhead(t, true) })
}

func windowReadAhead(t *testing.T, binaryWire bool) {
	leakcheck.Check(t)
	addr := poolTestServer(t, nil)
	p := newTestPool(t, addr, PoolConfig{Size: 1, Binary: binaryWire})
	const k, rounds = 3, 200
	var keys [2][]string
	for g := range keys {
		for i := 0; i < k; i++ {
			key := fmt.Sprintf("window:%d:%d", g, i)
			keys[g] = append(keys[g], key)
			if err := p.Set(&Item{Key: key, Value: []byte("v:" + key)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for round := 0; round < rounds; round++ {
		arr := make([]Item, 2*k)
		first := round / 2 % 2
		sent, collected := make(chan struct{}), make(chan struct{})
		errs := make(chan error, 2)
		var wg sync.WaitGroup
		for g := range keys {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var h Pending
				window := arr[g*k : g*k : (g+1)*k]
				if round%2 == 0 && g == first {
					p.SendGet(obs.TraceContext{}, keys[g], window, &h)
					close(sent)
					<-collected
				} else if round%2 == 0 {
					<-sent
					p.SendGet(obs.TraceContext{}, keys[g], window, &h)
				} else {
					p.SendGet(obs.TraceContext{}, keys[g], window, &h)
				}
				items, _, _, err := h.Collect()
				if round%2 == 0 && g != first {
					close(collected)
				}
				if err == nil && (len(items) != k || &items[0] != &arr[g*k]) {
					err = fmt.Errorf("%d items, in its window %v", len(items), len(items) > 0 && &items[0] == &arr[g*k])
				}
				for i := 0; err == nil && i < len(items); i++ {
					if items[i].Key != keys[g][i] || string(items[i].Value) != "v:"+keys[g][i] {
						err = fmt.Errorf("item %d is %q = %q", i, items[i].Key, items[i].Value)
					}
				}
				if err != nil {
					errs <- fmt.Errorf("round %d, goroutine %d: %w", round, g, err)
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
}
