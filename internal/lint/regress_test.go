package lint

import (
	"strings"
	"testing"
)

// TestHistoricalRegressions loads the distilled reproductions of bugs
// that actually shipped in this repo and asserts the suite still
// catches each one. These fixtures are the analyzers' reason to exist:
// if a refactor of the framework ever stops flagging them, that is a
// regression no matter how green everything else is. An analyzer
// without a row here has never caught a shipped bug and fails the test:
// it must earn a fixture or be deleted. CI runs this as its own
// "regression lint" step (make lint-regress).
func TestHistoricalRegressions(t *testing.T) {
	cases := []struct {
		name     string // historical bug, for the failure message
		pattern  string
		analyzer string
		want     []string // message substrings that must each appear
	}{
		{
			// The binary-transport pool's dial-slot limiter: releaseSlot
			// broadcast after dropping the lock, and the slow path waited
			// on the condition outside a re-checked loop — under churn,
			// wakeups were lost and dialers parked forever.
			name:     "dial-slot cond misuse (pool deadlock)",
			pattern:  "./testdata/src/regress/dialslot",
			analyzer: "lockorder",
			want: []string{
				"sync.Cond.Broadcast without the guarding lock",
				"outside a rechecked-condition loop",
			},
		},
		{
			// The adaptive placement's SetBase wrote the new base into
			// the currently published snapshot in place, so in-flight
			// readers saw a base inconsistent with the rest of the value.
			name:     "SetBase published-snapshot mutation",
			pattern:  "./testdata/src/regress/setbase",
			analyzer: "frozen",
			want: []string{
				"write to field base of a published setbase.placement value",
			},
		},
	}
	covered := make(map[string]bool)
	for _, tc := range cases {
		covered[tc.analyzer] = true
	}
	for _, a := range Analyzers() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no historical-bug fixture: distill the shipped bug it caught, or delete it", a.Name)
		}
	}
	for _, tc := range cases {
		t.Run(tc.analyzer, func(t *testing.T) {
			pkgs, err := Load(".", tc.pattern)
			if err != nil {
				t.Fatalf("load %s: %v", tc.pattern, err)
			}
			diags := Run(pkgs, Analyzers())
			for _, want := range tc.want {
				found := false
				for _, d := range diags {
					if d.Analyzer == tc.analyzer && strings.Contains(d.Message, want) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s: %s no longer reports %q — the historical bug would ship again.\ngot:\n%s",
						tc.name, tc.analyzer, want, renderDiags(diags))
				}
			}
		})
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (no diagnostics)"
	}
	return b.String()
}
