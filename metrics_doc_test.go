package rnb_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"testing"

	"rnb"
	"rnb/internal/memcache"
	"rnb/internal/obs"
	"rnb/internal/proxy"
)

var update = flag.Bool("update", false, "rewrite METRICS.md from the registry instead of comparing")

// TestMetricsDoc keeps METRICS.md equal to what the code registers:
// every family of a client (pooled, adaptive and traced, so no family
// hides behind an option), of the proxy in front of it, and of an
// rnbmemd server, rendered name · kind · help in name order. Run
// `go test -run TestMetricsDoc -update .` after adding or rewording a
// metric.
func TestMetricsDoc(t *testing.T) {
	srv := memcache.NewServer(memcache.NewStore(0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	cl, err := rnb.NewClient([]string{ln.Addr().String()},
		rnb.WithPoolSize(2),
		rnb.WithAdaptiveReplication(rnb.AdaptiveConfig{}),
		rnb.WithTracing(rnb.TraceConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	reg := obs.NewRegistry()
	proxy.New(cl).RegisterMetrics(reg) // proxy_* and the client's rnb_*
	srv.RegisterMetrics(reg)           // memd_*
	var exposition bytes.Buffer
	if err := reg.Render(&exposition); err != nil {
		t.Fatal(err)
	}

	// The exposition carries "# HELP <name> <help>" then "# TYPE <name>
	// <kind>" per family, already sorted by name.
	var doc strings.Builder
	doc.WriteString("# Metrics\n\n" +
		"Every family `/metrics` can serve: `rnb_*` from the client, `proxy_*` from\n" +
		"`rnbproxy`, `memd_*` from `rnbmemd` (the traced-transaction families also\n" +
		"from `rnbproxy`'s front). Durations are exported in seconds.\n" +
		"Generated from the registry by `go test -run TestMetricsDoc -update .`;\n" +
		"the same test fails when this file drifts. Do not edit by hand.\n\n" +
		"| name | kind | help |\n|---|---|---|\n")
	help := ""
	for sc := bufio.NewScanner(&exposition); sc.Scan(); {
		f := strings.SplitN(sc.Text(), " ", 4)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "HELP":
			help = f[3]
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			fmt.Fprintf(&doc, "| `%s` | %s | %s |\n", f[2], f[3], help)
			help = ""
		}
	}

	if *update {
		if err := os.WriteFile("METRICS.md", []byte(doc.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	have, err := os.ReadFile("METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	if string(have) != doc.String() {
		t.Fatalf("METRICS.md is out of date with the registry; run `go test -run TestMetricsDoc -update .`\nwant:\n%s", doc.String())
	}
}
