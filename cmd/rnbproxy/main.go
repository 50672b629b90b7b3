// Command rnbproxy is an RnB-aware memcached proxy: legacy clients
// speak plain memcached to it, and it replicates writes and bundles
// multi-gets across the backend tier (paper §I-C: "relatively easy to
// incorporate in existing systems" — repoint the memcached address,
// change nothing else).
//
// Usage:
//
//	rnbproxy -listen :11211 -replicas 3 10.0.0.1:11211 10.0.0.2:11211 ...
//
// or, for live membership changes without a restart:
//
//	rnbproxy -listen :11211 -replicas 3 -topology servers.conf
//
// With -topology the backend list comes from the config file (one or
// more addresses per line; '#' comments). The file is polled (interval
// set by -topology-poll) and every content change is applied as a live
// resize: new servers join and warm up, removed servers drain
// gracefully, and reads never miss mid-transition. SIGHUP forces an
// immediate re-read of the file.
//
// Backend servers should be this repository's rnbmemd (for the "setp"
// distinguished-copy pinning extension); pass -no-pin for stock
// memcached backends.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rnb"
	"rnb/internal/memcache"
	"rnb/internal/obs"
	"rnb/internal/proxy"
	"rnb/internal/topology"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:11222", "address to serve legacy clients on")
		replicas   = flag.Int("replicas", 3, "logical replication level")
		noPin      = flag.Bool("no-pin", false, "backends are stock memcached (no setp pinning)")
		timeout    = flag.Duration("timeout", 5*time.Second, "backend operation timeout")
		cooldown   = flag.Duration("cooldown", 10*time.Second, "circuit-breaker cooldown before a failed backend is probed (0 disables breakers)")
		threshold  = flag.Int("breaker-threshold", 1, "consecutive failures before a backend's breaker opens")
		retries    = flag.Int("retries", 1, "re-plan rounds for keys lost to a failed backend (0 disables)")
		backoff    = flag.Duration("retry-backoff", 15*time.Millisecond, "base jittered backoff between re-plan rounds")
		statsEvery = flag.Duration("stats-every", 0, "log backend breaker states at this interval (0 disables)")
		poolSize   = flag.Int("pool-size", 1, "pipelined connections per backend (1 = one connection, write-backs ride unanswered in front of the next command; more = write-backs are acknowledged adds)")
		binary     = flag.Bool("binary", false, "speak the binary protocol to backends (quiet-get pipelining; -pool-size applies as on text)")
		debugAddr  = flag.String("debug-addr", "", "serve /metrics (Prometheus text), /debug/requests (flight recorder), /debug/traces (slow and sampled spans) and /debug/pprof on this address (empty disables)")
		slowLog    = flag.Duration("slow-log", 0, "slow threshold: requests at least this slow are logged and always kept for /debug/traces, traced or not (0 disables)")
		ringSize   = flag.Int("flight-recorder", 0, "flight-recorder capacity in request spans (0 = default 256)")
		topoFile   = flag.String("topology", "", "backend list config file; watched for changes and re-read on SIGHUP (replaces positional backends)")
		topoPoll   = flag.Duration("topology-poll", 2*time.Second, "poll interval for the -topology file")

		trace       = flag.Bool("trace", false, "distributed tracing: propagate trace contexts to rnbmemd backends and keep a reservoir sample of the traces that are not slow")
		traceSample = flag.Int("trace-sample", 1, "head-sampling rate: every Nth multi-get starts a trace (with -trace)")
		traceDump   = flag.String("trace-dump", "", "write the slow and sampled spans as Chrome trace-event JSON to this file on shutdown (load in Perfetto)")

		adaptive    = flag.Bool("adaptive", false, "adaptive hot-key replication: boost replication of keys that dominate recent traffic")
		maxBoost    = flag.Int("adaptive-max-boost", 2, "extra replicas a hot key can earn (with -adaptive)")
		promoteFrac = flag.Float64("adaptive-promote-frac", 0.002, "fraction of epoch traffic a key needs to be promoted (with -adaptive)")
		epochOps    = flag.Int("adaptive-epoch-ops", 50000, "observed keys per heat epoch (with -adaptive)")
	)
	flag.Parse()
	backends := flag.Args()
	if *topoFile != "" {
		if len(backends) != 0 {
			fmt.Fprintln(os.Stderr, "rnbproxy: -topology and positional backends are mutually exclusive")
			os.Exit(2)
		}
		list, err := topology.LoadFile(*topoFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rnbproxy: %v\n", err)
			os.Exit(2)
		}
		backends = list
	} else if len(backends) == 0 {
		fmt.Fprintln(os.Stderr, "rnbproxy: need at least one backend address (or -topology <file>)")
		os.Exit(2)
	} else {
		// Validate positional backends the same way the config file is:
		// trimmed, no empties, no duplicates.
		list, err := topology.ParseServerList(backends)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rnbproxy: %v\n", err)
			os.Exit(2)
		}
		backends = list
	}

	opts := []rnb.Option{
		rnb.WithReplicas(*replicas),
		rnb.WithTimeout(*timeout),
		rnb.WithFailureCooldown(*cooldown),
		rnb.WithBreakerThreshold(*threshold),
		rnb.WithRetry(*retries, *backoff),
		rnb.WithPoolSize(*poolSize),
		rnb.WithObservability(rnb.ObsConfig{
			RingSize:      *ringSize,
			SlowThreshold: *slowLog,
		}),
	}
	if *binary {
		opts = append(opts, rnb.WithBinaryProtocol())
	}
	if *trace {
		opts = append(opts, rnb.WithTracing(rnb.TraceConfig{SampleEvery: *traceSample}))
	}
	if *noPin {
		opts = append(opts, rnb.WithPinnedDistinguished(false))
	}
	if *adaptive {
		opts = append(opts, rnb.WithAdaptiveReplication(rnb.AdaptiveConfig{
			MaxBoost:    *maxBoost,
			PromoteFrac: *promoteFrac,
			EpochOps:    *epochOps,
		}))
	}
	client, err := rnb.NewClient(backends, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rnbproxy: %v\n", err)
		os.Exit(1)
	}
	defer client.Close()

	if *topoFile != "" {
		// Membership changes arrive one at a time through the watcher's
		// callback goroutine, which matches SetServers' single-caller
		// contract. SIGHUP forces a re-read even if the content is
		// unchanged (a no-op resize).
		watcher, err := topology.Watch(*topoFile, topology.WatchConfig{
			Interval: *topoPoll,
			OnChange: func(list []string) {
				if err := client.SetServers(list); err != nil {
					fmt.Fprintf(os.Stderr, "rnbproxy: topology reload: %v\n", err)
					return
				}
				fmt.Fprintf(os.Stderr, "rnbproxy: topology reloaded: %d backends, epoch %d\n",
					len(list), client.Epoch())
			},
			OnError: func(err error) {
				fmt.Fprintf(os.Stderr, "rnbproxy: topology watch: %v\n", err)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rnbproxy: %v\n", err)
			os.Exit(1)
		}
		defer watcher.Close()
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				fmt.Fprintln(os.Stderr, "rnbproxy: SIGHUP, re-reading topology")
				watcher.Reload()
			}
		}()
	}

	pxy := proxy.New(client)
	srv := memcache.NewServerBackend(pxy)
	// One registry: the front's memd_* families plus the proxy's and the
	// client's. /metrics, the front's "stats" reply and the -stats-every
	// line are all renderings of it.
	reg := srv.Registry()
	pxy.RegisterMetrics(reg)
	if *debugAddr != "" {
		ln, err := obs.ListenAndServe(*debugAddr, obs.NewMux(reg, client.Recorder(), srv.Recorder()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rnbproxy: debug endpoint: %v\n", err)
			os.Exit(1)
		}
		defer ln.Close()
		fmt.Printf("rnbproxy: debug endpoint on http://%s (/metrics, /debug/requests, /debug/traces, /debug/trace/<id>, /debug/spans, /debug/pprof)\n", ln.Addr())
	}
	if *statsEvery > 0 {
		go func() {
			tick := time.NewTicker(*statsEvery)
			defer tick.Stop()
			for range tick.C {
				line := ""
				for _, st := range client.ServerStates() {
					line += fmt.Sprintf(" %s=%s", st.Addr, st.State)
					if st.ConsecutiveFailures > 0 {
						line += fmt.Sprintf("(%d)", st.ConsecutiveFailures)
					}
				}
				line += ";"
				reg.Scalars(func(name string, v int64) {
					if v != 0 && !strings.HasPrefix(name, "memd_") {
						line += fmt.Sprintf(" %s=%d", name, v)
					}
				})
				fmt.Fprintln(os.Stderr, "rnbproxy: backends"+line)
			}
		}()
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "rnbproxy: shutting down")
		srv.Close()
	}()

	fmt.Printf("rnbproxy: %s -> %d backends, %d replicas\n", *listen, len(backends), *replicas)
	if err := srv.ListenAndServe(*listen); err != nil {
		fmt.Fprintf(os.Stderr, "rnbproxy: %v\n", err)
		os.Exit(1)
	}
	if *traceDump != "" {
		if err := dumpTraces(*traceDump, client.Recorder().Traces()); err != nil {
			fmt.Fprintf(os.Stderr, "rnbproxy: trace dump: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "rnbproxy: wrote kept traces to %s\n", *traceDump)
	}
}

// dumpTraces writes the kept spans as one Chrome trace-event JSON
// file — drag it into Perfetto (ui.perfetto.dev) to see the causal
// timeline.
func dumpTraces(path string, spans []obs.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTraceEvents(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
