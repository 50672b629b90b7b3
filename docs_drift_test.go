package rnb_test

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameWhatExists fails when README.md, DESIGN.md or
// EXPERIMENTS.md point a reader at something the tree no longer has: a
// `make <target>` the Makefile lacks, a BENCH_*.json that is not on
// disk, or a cmd/<x> or internal/<x> directory that does not exist.
// Deleting a harness turns every stale pointer to it into a failure
// here instead of a surprise at the prompt.
func TestDocsNameWhatExists(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}

	// A make invocation is a code span that starts with `make` (it may
	// wrap a line) or a line that does (a fenced block); prose "make
	// sure" is neither. The words after it are targets up to the first
	// one that is not shaped like one (a comment, VAR=value).
	invocations := []*regexp.Regexp{
		regexp.MustCompile("`make\\s+([^`]*)`"),
		regexp.MustCompile(`(?m)^make[ \t]+(.*)$`),
	}
	target := regexp.MustCompile(`^[a-z][a-z0-9-]*$`)
	benchFile := regexp.MustCompile(`BENCH_[a-z_]+\.json`)
	dir := regexp.MustCompile(`\b(?:cmd|internal)/[a-z][a-z0-9]*`)

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, re := range invocations {
			for _, m := range re.FindAllSubmatch(text, -1) {
				for _, w := range strings.Fields(string(m[1])) {
					if !target.MatchString(w) {
						break
					}
					if !targets[w] {
						t.Errorf("%s names `make %s`, which the Makefile does not define", doc, w)
					}
				}
			}
		}
		for _, f := range benchFile.FindAll(text, -1) {
			if _, err := os.Stat(string(f)); err != nil {
				t.Errorf("%s names %s, which is not in the tree", doc, f)
			}
		}
		for _, d := range dir.FindAll(text, -1) {
			if fi, err := os.Stat(string(d)); err != nil || !fi.IsDir() {
				t.Errorf("%s names %s, which is not a directory in the tree", doc, d)
			}
		}
	}
}
