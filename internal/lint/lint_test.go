package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRE matches fixture expectation comments:
//
//	// want <analyzer> "<message substring>"
var wantRE = regexp.MustCompile(`//\s*want\s+(\S+)\s+"([^"]*)"`)

// fixtureDirs walks testdata/src and returns every directory holding
// .go files, as ./-relative go list patterns, minus any in skip.
func fixtureDirs(t *testing.T, skip ...string) []string {
	t.Helper()
	skipSet := make(map[string]bool)
	for _, s := range skip {
		skipSet[s] = true
	}
	var dirs []string
	err := filepath.WalkDir("testdata/src", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if !skipSet[filepath.Base(dir)] {
			dirs = append(dirs, "./"+filepath.ToSlash(dir))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk testdata/src: %v", err)
	}
	sort.Strings(dirs)
	return uniq(dirs)
}

func uniq(xs []string) []string {
	var out []string
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

type expectation struct {
	analyzer  string
	substring string
	matched   bool
}

// collectWants scans the loaded fixture files for want comments and
// returns them keyed by "file:line".
func collectWants(t *testing.T, pkgs []*Package) map[string][]*expectation {
	t.Helper()
	wants := make(map[string][]*expectation)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &expectation{analyzer: m[1], substring: m[2]})
				}
			}
		}
	}
	return wants
}

// TestAnalyzersGolden runs the full suite over every fixture package
// (except suppress, which has its own test) and checks the diagnostics
// against the inline want comments in both directions: every finding
// must be expected, and every expectation must fire. The good packages
// carry no want comments, so any finding there fails the test.
func TestAnalyzersGolden(t *testing.T) {
	dirs := fixtureDirs(t, "suppress")
	pkgs, err := Load(".", dirs...)
	if err != nil {
		t.Fatalf("load fixtures: %v", err)
	}
	for _, pkg := range pkgs {
		for _, te := range pkg.TypeErrors {
			t.Errorf("fixture %s does not type-check: %v", pkg.Path, te)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	wants := collectWants(t, pkgs)
	if len(pkgs) < len(dirs) || len(wants) == 0 {
		t.Fatalf("fixture load looks wrong: %d packages, %d want lines", len(pkgs), len(wants))
	}
	for _, d := range Run(pkgs, Analyzers()) {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		if !claimWant(wants[key], d.Analyzer, d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, exps := range wants {
		for _, e := range exps {
			if !e.matched {
				t.Errorf("%s: expected %s diagnostic containing %q, got none", key, e.analyzer, e.substring)
			}
		}
	}
}

// claimWant marks and returns the first unclaimed expectation matching
// the diagnostic.
func claimWant(exps []*expectation, analyzer, message string) bool {
	for _, e := range exps {
		if !e.matched && e.analyzer == analyzer && strings.Contains(message, e.substring) {
			e.matched = true
			return true
		}
	}
	return false
}

// TestSuppressionDirectives loads the suppress fixture, whose
// expectations cannot live in want comments (malformed-directive
// diagnostics land on comment-only lines). It checks that well-formed
// directives silence the lockorder findings they cover, and that each
// malformed form — bare, unknown analyzer, missing reason — is itself
// reported and suppresses nothing.
func TestSuppressionDirectives(t *testing.T) {
	pkgs, err := Load(".", "./testdata/src/suppress")
	if err != nil {
		t.Fatalf("load suppress fixture: %v", err)
	}
	diags := Run(pkgs, Analyzers())
	for _, d := range diags {
		t.Logf("diagnostic: %s", d)
	}

	var rnblint, lockorder int
	for _, d := range diags {
		switch d.Analyzer {
		case "rnblint":
			rnblint++
		case "lockorder":
			lockorder++
		default:
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d)
		}
	}
	// Three well-formed suppressions silence three of the six lockorder
	// findings; the three under malformed directives survive.
	if lockorder != 3 {
		t.Errorf("got %d lockorder diagnostics, want 3 (malformed directives must not suppress)", lockorder)
	}
	// One rnblint diagnostic per malformed directive, plus one for the
	// well-formed directive that suppresses nothing.
	if rnblint != 4 {
		t.Errorf("got %d rnblint diagnostics, want 4 (three malformed directives + one dead one)", rnblint)
	}
	for _, substr := range []string{
		"names no analyzer",
		`unknown analyzer "nosuchanalyzer"`,
		"missing a reason",
		"suppresses nothing; delete it",
	} {
		if !hasDiag(diags, "rnblint", substr) {
			t.Errorf("missing rnblint diagnostic containing %q", substr)
		}
	}
}

func hasDiag(diags []Diagnostic, analyzer, substr string) bool {
	for _, d := range diags {
		if d.Analyzer == analyzer && strings.Contains(d.Message, substr) {
			return true
		}
	}
	return false
}

// TestByName covers analyzer selection, including the unknown-name
// error path used by cmd/rnblint's -only flag.
func TestByName(t *testing.T) {
	got, err := ByName([]string{"lockorder", "frozen"})
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if len(got) != 2 || got[0].Name != "lockorder" || got[1].Name != "frozen" {
		t.Fatalf("ByName returned wrong analyzers: %v", got)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Fatal("ByName accepted an unknown analyzer name")
	}
}
