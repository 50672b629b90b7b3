// Command rnblint runs the repository's static-analysis suite
// (internal/lint) over the given package patterns and reports every
// invariant violation with its position. It exits 0 when the tree is
// clean, 1 when diagnostics were reported, and 2 when loading or
// type-checking failed.
//
// Usage:
//
//	rnblint [-only analyzer[,analyzer...]] [-list] [packages...]
//
// With no patterns it checks ./... . Each finding is one line,
// file:line:col: analyzer: message — the format CI's problem matcher
// (.github/rnblint-matcher.json) turns into inline annotations.
// Suppress a finding with a trailing or preceding comment naming the
// analyzer and a reason:
//
//	//rnblint:ignore lockorder the self-deadlock is the point — this test wants a hung Lock
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rnb/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer subset to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rnblint [flags] [packages...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := lint.Analyzers()
	if *only != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	loadFailed := false
	for _, p := range pkgs {
		for _, terr := range p.TypeErrors {
			fmt.Fprintf(os.Stderr, "rnblint: %s: %v\n", p.Path, terr)
			loadFailed = true
		}
	}
	if loadFailed {
		os.Exit(2)
	}

	diags := lint.Run(pkgs, analyzers)
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "rnblint: %d issue(s)\n", len(diags))
		os.Exit(1)
	}
}
