// Command bench is the repo's benchmark: one repeatable end-to-end and
// per-layer measurement of the RnB multi-get path. It stands up
// in-process memcache servers on raw loopback TCP, preloads them, warms
// up, drives a closed loop of two client goroutines over a seeded
// request stream, verifies every returned value, and prints every
// metric by name with its unit. -trace 1 (or -layers) is the traced,
// fixed-count run that yields the per-layer numbers. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: feed_bundle, point_get, overbooked_mix or proxy_pooled_binary")
		all      = fs.Bool("all", false, "run every workload in turn")
		seed     = fs.Int64("seed", 1, "seed of the request stream")
		seconds  = fs.Float64("seconds", 20, "length of the measured phase in seconds")
		trace    = fs.Int("trace", 0, "0: untraced end-to-end run; 1: traced per-layer run")
		layers   = fs.Bool("layers", false, "same as -trace 1")
		out      = fs.String("out", "", "also write the full result (a JSON array with -all) to this file")
	)
	fs.Func("duration", "same as -seconds, as a Go duration (20s)", func(s string) error {
		d, err := time.ParseDuration(s)
		*seconds = d.Seconds()
		return err
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var todo []*spec
	switch {
	case *all:
		for i := range specs {
			todo = append(todo, &specs[i])
		}
	case specByName(*workload) != nil:
		todo = append(todo, specByName(*workload))
	default:
		fmt.Fprintf(stderr, "bench: unknown workload %q (want -all or -workload feed_bundle|point_get|overbooked_mix|proxy_pooled_binary)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	var results []*result
	for _, sp := range todo {
		var res *result
		var err error
		if *trace == 1 || *layers {
			res, err = runLayers(sp, *seed, benchSizes, "bench/out")
		} else {
			res, err = runEndToEnd(sp, *seed, *seconds, benchSizes)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", sp.name, err)
			return 1
		}
		res.print(stdout)
		results = append(results, res)
	}
	if *out != "" {
		var v any = results
		if !*all {
			v = results[0]
		}
		data, err := json.MarshalIndent(v, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	return 0
}
