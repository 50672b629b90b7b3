package rnb_test

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"sort"
	"strings"
	"testing"

	"rnb"
	"rnb/internal/memcache"
	"rnb/internal/obs"
	"rnb/internal/proxy"
)

var update = flag.Bool("update", false, "rewrite METRICS.md from the registry instead of comparing")

// TestMetricsDoc keeps METRICS.md equal to what the daemons register:
// an rnbmemd server's registry, and an rnbproxy front's registry after
// the one call rnbproxy makes (the client pooled, adaptive and traced,
// so no family hides behind an option), rendered name · kind · help in
// name order. It is also where every family is enumerated, so the
// naming rules the registry itself does not enforce are checked here:
// a sanctioned namespace, and a help sentence of its own. Run
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
	pxy := proxy.New(cl)
	front := memcache.NewServerBackend(pxy)
	pxy.RegisterMetrics(front.Registry())

	// Each exposition carries "# HELP <name> <help>" then "# TYPE <name>
	// <kind>" per family. The two daemons share the front's memd_*
	// families; rows are keyed by name.
	rows := map[string]string{}
	helps := map[string]string{}
	for _, reg := range []*obs.Registry{srv.Registry(), front.Registry()} {
		var exposition bytes.Buffer
		if err := reg.Render(&exposition); err != nil {
			t.Fatal(err)
		}
		help := ""
		for sc := bufio.NewScanner(&exposition); sc.Scan(); {
			f := strings.SplitN(sc.Text(), " ", 4)
			switch {
			case len(f) == 4 && f[0] == "#" && f[1] == "HELP":
				help = f[3]
			case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
				name := f[2]
				if !strings.HasPrefix(name, "rnb_") && !strings.HasPrefix(name, "proxy_") && !strings.HasPrefix(name, "memd_") {
					t.Errorf("family %s is outside the sanctioned namespaces rnb_, proxy_, memd_", name)
				}
				if other, dup := helps[help]; help == "" || dup && other != name {
					t.Errorf("family %s has no help sentence of its own: %q (also %s)", name, help, other)
				}
				helps[help] = name
				rows[name] = fmt.Sprintf("| `%s` | %s | %s |\n", name, f[3], help)
				help = ""
			}
		}
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)

	var doc strings.Builder
	doc.WriteString("# Metrics\n\n" +
		"Every family `/metrics` can serve: `rnb_*` from the client and `proxy_*`\n" +
		"from `rnbproxy`, `memd_*` from `rnbmemd` and — all but the three store\n" +
		"families `memd_bytes`, `memd_curr_items`, `memd_evictions` — from\n" +
		"`rnbproxy`'s front server. Durations are exported in seconds. The\n" +
		"memcached `stats` command answers every counter and gauge below that has\n" +
		"no labels, under the same name (`memd_*` under its bare memcached name).\n" +
		"Generated from the registry by `go test -run TestMetricsDoc -update .`;\n" +
		"the same test fails when this file drifts. Do not edit by hand.\n\n" +
		"| name | kind | help |\n|---|---|---|\n")
	for _, name := range names {
		doc.WriteString(rows[name])
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
