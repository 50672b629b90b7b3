package topology

import (
	"strings"
	"testing"
)

func TestMachineLifecycle(t *testing.T) {
	m, err := NewMachine([]string{"a:1", "b:1"})
	if err != nil {
		t.Fatal(err)
	}
	v := m.View()
	if v.Epoch != 1 || len(v.Members) != 2 {
		t.Fatalf("initial view: %+v", v)
	}
	for _, mem := range v.Members {
		if mem.State != StateActive {
			t.Fatalf("initial member %+v not active", mem)
		}
	}

	v, err = m.Join("c:1")
	if err != nil {
		t.Fatal(err)
	}
	if v.Epoch != 2 {
		t.Fatalf("epoch after join = %d, want 2", v.Epoch)
	}
	mem, ok := v.Find("c:1")
	if !ok || mem.State != StateJoining || mem.Index != 2 {
		t.Fatalf("joined member: %+v ok=%v", mem, ok)
	}

	if v, err = m.Activate("c:1"); err != nil {
		t.Fatal(err)
	}
	if mem, _ = v.Find("c:1"); mem.State != StateActive {
		t.Fatalf("after activate: %+v", mem)
	}

	if v, err = m.Drain("a:1"); err != nil {
		t.Fatal(err)
	}
	if mem, _ = v.Find("a:1"); mem.State != StateDraining {
		t.Fatalf("after drain: %+v", mem)
	}
	if v, err = m.Finish("a:1"); err != nil {
		t.Fatal(err)
	}
	if mem, _ = v.Find("a:1"); mem.State != StateGone {
		t.Fatalf("after finish: %+v", mem)
	}
	if got := len(v.Live()); got != 2 {
		t.Fatalf("live count = %d, want 2", got)
	}
	if v.Epoch != 5 {
		t.Fatalf("epoch = %d, want 5", v.Epoch)
	}
}

func TestMachineRejoinRevivesIndex(t *testing.T) {
	m, err := NewMachine([]string{"a:1", "b:1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Drain("a:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finish("a:1"); err != nil {
		t.Fatal(err)
	}
	v, err := m.Join("a:1")
	if err != nil {
		t.Fatal(err)
	}
	mem, ok := v.Find("a:1")
	if !ok || mem.Index != 0 || mem.State != StateJoining {
		t.Fatalf("rejoined member: %+v ok=%v", mem, ok)
	}
	if len(v.Members) != 2 {
		t.Fatalf("members grew on rejoin: %+v", v.Members)
	}
}

func TestMachineInvalidTransitions(t *testing.T) {
	m, err := NewMachine([]string{"a:1"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		op   func() (View, error)
	}{
		{"join existing active", func() (View, error) { return m.Join("a:1") }},
		{"activate active", func() (View, error) { return m.Activate("a:1") }},
		{"finish active", func() (View, error) { return m.Finish("a:1") }},
		{"drain unknown", func() (View, error) { return m.Drain("nope:1") }},
		{"join empty", func() (View, error) { return m.Join("  ") }},
	}
	for _, tc := range cases {
		if _, err := tc.op(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if got := m.Epoch(); got != 1 {
		t.Fatalf("failed transitions bumped the epoch to %d", got)
	}
}

func TestMachineDrainAbortsJoin(t *testing.T) {
	m, err := NewMachine([]string{"a:1"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Join("b:1"); err != nil {
		t.Fatal(err)
	}
	// A joining server may be drained directly (aborted join).
	if _, err := m.Drain("b:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Finish("b:1"); err != nil {
		t.Fatal(err)
	}
}

func TestParseServerList(t *testing.T) {
	got, err := ParseServerList([]string{" a:1 ", "b:2", "\tc:3"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a:1", "b:2", "c:3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseServerList = %v, want %v", got, want)
		}
	}

	if _, err := ParseServerList([]string{"a:1", ""}); err == nil {
		t.Fatal("empty entry accepted")
	}
	if _, err := ParseServerList([]string{"a:1", "   "}); err == nil {
		t.Fatal("whitespace entry accepted")
	}
	_, err = ParseServerList([]string{"a:1", " a:1"})
	if err == nil {
		t.Fatal("whitespace-disguised duplicate accepted")
	}
	if !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate error unclear: %v", err)
	}
}

func TestParseConfig(t *testing.T) {
	data := []byte(`
# tier config
a:11211, b:11211
  c:11211   # trailing comment
d:11211	e:11211
`)
	got, err := ParseConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a:11211", "b:11211", "c:11211", "d:11211", "e:11211"}
	if len(got) != len(want) {
		t.Fatalf("ParseConfig = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseConfig = %v, want %v", got, want)
		}
	}

	if _, err := ParseConfig([]byte("# only comments\n\n")); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := ParseConfig([]byte("a:1\na:1\n")); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func FuzzParseConfig(f *testing.F) {
	f.Add([]byte("a:1,b:2\n"))
	f.Add([]byte("# comment\na:1 b:2\tc:3\r\n"))
	f.Add([]byte(" a:1 \n\n#\n,b:2,,\n"))
	f.Add([]byte("a:1\na:1\n"))
	f.Add([]byte(",,,\n###\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		list, err := ParseConfig(data)
		if err != nil {
			return
		}
		// A successful parse guarantees a canonical list: non-empty,
		// trimmed, duplicate-free.
		if len(list) == 0 {
			t.Fatal("successful parse returned no servers")
		}
		seen := make(map[string]bool, len(list))
		for _, addr := range list {
			if addr == "" || strings.TrimSpace(addr) != addr {
				t.Fatalf("non-canonical entry %q", addr)
			}
			if strings.ContainsAny(addr, ", \t\r\n#") {
				t.Fatalf("separator leaked into entry %q", addr)
			}
			if seen[addr] {
				t.Fatalf("duplicate entry %q", addr)
			}
			seen[addr] = true
		}
		// Parsing must be idempotent: the canonical list re-parses to
		// itself.
		again, err := ParseServerList(list)
		if err != nil {
			t.Fatalf("canonical list failed re-parse: %v", err)
		}
		for i := range list {
			if again[i] != list[i] {
				t.Fatalf("re-parse changed %q to %q", list[i], again[i])
			}
		}
	})
}
