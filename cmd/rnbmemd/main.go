// Command rnbmemd is a standalone RnB-memcached server: a
// memcached-text-protocol daemon with LRU-bounded memory and the RnB
// "setp" pinning extension for distinguished copies (paper §IV).
//
// Usage:
//
//	rnbmemd -addr :11211 -memory 256MB
//
// Point any memcached client at it, or an rnb.Client for the full
// Replicate-and-Bundle path. Stats are served via the standard "stats"
// command.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"rnb/internal/memcache"
	"rnb/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "listen address (TCP; serves text and binary protocols)")
		memory    = flag.String("memory", "64MB", "memory budget (e.g. 512KB, 256MB, 2GB; 0 = unbounded)")
		protocols = flag.String("protocols", "both", "wire formats to accept: text, binary, or both")
		debugAddr = flag.String("debug-addr", "", "serve /metrics (Prometheus text) and /debug/pprof on this address (empty disables)")
	)
	flag.Parse()

	capacity, err := parseSize(*memory)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rnbmemd: %v\n", err)
		os.Exit(2)
	}
	store := memcache.NewStore(capacity)
	srv := memcache.NewServer(store)
	if err := srv.SetProtocols(*protocols); err != nil {
		fmt.Fprintf(os.Stderr, "rnbmemd: %v\n", err)
		os.Exit(2)
	}

	if *debugAddr != "" {
		ln, err := obs.ListenAndServe(*debugAddr, obs.NewMux(srv.Registry(), nil, srv.Recorder()))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rnbmemd: debug endpoint: %v\n", err)
			os.Exit(1)
		}
		defer ln.Close()
		fmt.Printf("rnbmemd: debug endpoint on http://%s (/metrics, /debug/spans, /debug/pprof)\n", ln.Addr())
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "rnbmemd: shutting down")
		srv.Close()
	}()

	fmt.Printf("rnbmemd: serving memcached protocol on %s (memory %s)\n", *addr, *memory)
	if err := srv.ListenAndServe(*addr); err != nil {
		fmt.Fprintf(os.Stderr, "rnbmemd: %v\n", err)
		os.Exit(1)
	}
}

// parseSize parses "512KB" / "256MB" / "2GB" / plain bytes.
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	for _, suffix := range []struct {
		tag string
		m   int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"B", 1}} {
		if strings.HasSuffix(s, suffix.tag) {
			mult = suffix.m
			s = strings.TrimSuffix(s, suffix.tag)
			break
		}
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative size %d", v)
	}
	if v > math.MaxInt64/mult {
		return 0, fmt.Errorf("size %d x %d bytes overflows int64", v, mult)
	}
	return v * mult, nil
}
