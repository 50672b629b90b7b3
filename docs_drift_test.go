package rnb_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"rnb"
	"rnb/internal/cluster"
	"rnb/internal/core"
	"rnb/internal/hotspot"
	"rnb/internal/lint"
	"rnb/internal/memcache"
)

// TestDocsNameWhatExists fails when README.md, DESIGN.md,
// EXPERIMENTS.md, PAPER.md or METRICS.md point a reader at something
// the tree no longer has: a
// `make <target>` the Makefile lacks, a BENCH_*.json that is not on
// disk, a cmd/<x> or internal/<x> directory that does not exist, or a
// config field (PoolConfig.X, core.Options.X, ...) its type lacks, a
// With* option package rnb does not export, a core.X that is not an
// exported identifier of internal/core, a Planner.X or Round2.X
// method *core.Planner or *core.Round2 lacks, a Store.X method
// *memcache.Store lacks (unexported ones count), or (in README.md and
// DESIGN.md) an rnblint analyzer lint.Analyzers does not return.
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
	configs := map[string]reflect.Type{
		"PoolConfig":     reflect.TypeOf(memcache.PoolConfig{}),
		"ObsConfig":      reflect.TypeOf(rnb.ObsConfig{}),
		"TraceConfig":    reflect.TypeOf(rnb.TraceConfig{}),
		"hotspot.Config": reflect.TypeOf(hotspot.Config{}),
		"core.Options":   reflect.TypeOf(core.Options{}),
		"cluster.Config": reflect.TypeOf(cluster.Config{}),
	}
	field := regexp.MustCompile(`\b(PoolConfig|ObsConfig|TraceConfig|hotspot\.Config|core\.Options|cluster\.Config)\.(\w+)`)

	// The parsed non-test sources of one package.
	parse := func(glob string) []*ast.File {
		sources, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		fset := token.NewFileSet()
		for _, src := range sources {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, src, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		return files
	}
	// The exported names in a package: package rnb's functions (the
	// With* options), and every one of internal/core's.
	exported := func(glob string, funcsOnly bool) map[string]bool {
		names := map[string]bool{}
		add := func(id *ast.Ident) {
			if id.IsExported() {
				names[id.Name] = true
			}
		}
		for _, f := range parse(glob) {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name)
					}
				case *ast.GenDecl:
					if funcsOnly {
						continue
					}
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							add(spec.Name)
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								add(n)
							}
						}
					}
				}
			}
		}
		return names
	}
	// The methods of *memcache.Store, unexported ones (Store.keep)
	// included: the docs name the store's internals too.
	storeMethods := map[string]bool{}
	for _, f := range parse("internal/memcache/*.go") {
		for _, d := range f.Decls {
			if d, ok := d.(*ast.FuncDecl); ok && d.Recv != nil {
				if star, ok := d.Recv.List[0].Type.(*ast.StarExpr); ok {
					if id, ok := star.X.(*ast.Ident); ok && id.Name == "Store" {
						storeMethods[d.Name.Name] = true
					}
				}
			}
		}
	}
	storeMethod := regexp.MustCompile(`\bStore\.(\w+)`)
	funcs, coreNames := exported("*.go", true), exported("internal/core/*.go", false)
	option := regexp.MustCompile(`\bWith[A-Z]\w*`)
	coreName := regexp.MustCompile(`\bcore\.([A-Z]\w*)`)
	methods := map[string]reflect.Type{
		"Planner": reflect.TypeOf(&core.Planner{}),
		"Round2":  reflect.TypeOf(&core.Round2{}),
	}
	method := regexp.MustCompile(`\b(Planner|Round2)\.(\w+)`)
	analyzers := map[string]bool{}
	for _, a := range lint.Analyzers() {
		analyzers[a.Name] = true
	}
	// An analyzer is named by a run of it (`rnblint -only X`), a
	// suppression (`//rnblint:ignore X`) or its `* **X** —` bullet; the
	// first two take comma lists.
	analyzerRefs := []*regexp.Regexp{
		regexp.MustCompile(`rnblint -only ([a-z,]+)`),
		regexp.MustCompile(`//rnblint:ignore ([a-z,]+)`),
		regexp.MustCompile(`(?m)^\* \*\*([a-z]+)\*\* —`),
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "METRICS.md"} {
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
		for _, m := range field.FindAllSubmatch(text, -1) {
			if f, ok := configs[string(m[1])].FieldByName(string(m[2])); !ok || !f.IsExported() {
				t.Errorf("%s names %s, which is not a field of that type", doc, m[0])
			}
		}
		for _, o := range option.FindAll(text, -1) {
			if !funcs[string(o)] {
				t.Errorf("%s names %s, which package rnb does not export", doc, o)
			}
		}
		for _, m := range coreName.FindAllSubmatch(text, -1) {
			if !coreNames[string(m[1])] {
				t.Errorf("%s names %s, which internal/core does not export", doc, m[0])
			}
		}
		for _, m := range method.FindAllSubmatch(text, -1) {
			if _, ok := methods[string(m[1])].MethodByName(string(m[2])); !ok {
				t.Errorf("%s names %s, which is not a method of *core.%s", doc, m[0], m[1])
			}
		}
		for _, m := range storeMethod.FindAllSubmatch(text, -1) {
			if !storeMethods[string(m[1])] {
				t.Errorf("%s names %s, which is not a method of *memcache.Store", doc, m[0])
			}
		}
		if doc != "README.md" && doc != "DESIGN.md" {
			continue
		}
		for _, re := range analyzerRefs {
			for _, m := range re.FindAllSubmatch(text, -1) {
				for _, name := range strings.Split(string(m[1]), ",") {
					if !analyzers[name] {
						t.Errorf("%s names rnblint analyzer %s (%q), which lint.Analyzers does not return", doc, name, m[0])
					}
				}
			}
		}
	}
}
