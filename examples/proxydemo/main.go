// Proxydemo: adopting RnB without changing application code.
//
// A "legacy application" (a plain memcached client) first talks to a
// single cache server directly, then to an RnB proxy fronting an
// 8-server tier with 3-way replication. Same client code, same
// protocol — but multi-gets now cost a fraction of the backend
// transactions, as the proxy's stats show.
//
// Run with:
//
//	go run ./examples/proxydemo
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"rnb"
	"rnb/internal/memcache"
	"rnb/internal/proxy"
)

func startServer() (*memcache.Server, string) {
	srv := memcache.NewServer(memcache.NewStore(0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	return srv, ln.Addr().String()
}

func main() {
	// The backend tier: eight RnB-memcached servers.
	var addrs []string
	var servers []*memcache.Server
	for i := 0; i < 8; i++ {
		srv, addr := startServer()
		defer srv.Close()
		addrs = append(addrs, addr)
		servers = append(servers, srv)
	}

	// The proxy: replicates writes 3 ways, bundles reads.
	client, err := rnb.NewClient(addrs, rnb.WithReplicas(3))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	pxy := proxy.New(client)
	front := memcache.NewServerBackend(pxy)
	pxy.RegisterMetrics(front.Registry()) // "stats" answers what the registry names
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go front.Serve(ln)
	defer front.Close()

	// The "legacy application": a bone-stock memcached client. It has
	// no idea RnB exists.
	app, err := memcache.Dial(ln.Addr().String(), 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	defer app.Close()

	keys := make([]string, 50)
	for i := range keys {
		keys[i] = fmt.Sprintf("timeline:%04d", i)
		if err := app.Set(&memcache.Item{Key: keys[i], Value: []byte("post")}); err != nil {
			log.Fatal(err)
		}
	}

	var before uint64
	for _, srv := range servers {
		before += srv.Stats().Transactions.Load()
	}
	items, err := app.GetMulti(keys)
	if err != nil {
		log.Fatal(err)
	}
	var after uint64
	for _, srv := range servers {
		after += srv.Stats().Transactions.Load()
	}

	fmt.Printf("legacy client fetched %d items through the proxy\n", len(items))
	fmt.Printf("backend transactions for that multi-get: %d (8 servers, so naive\n", after-before)
	fmt.Printf("consistent hashing would have used ~8)\n\n")

	st, err := app.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("proxy stats (via the standard memcached `stats` command):")
	for _, k := range []string{"proxy_servers", "proxy_replicas", "proxy_requests",
		"proxy_backend_txns", "proxy_hitchhikers"} {
		fmt.Printf("  %-20s %s\n", k, st[k])
	}
	fmt.Println("\nThe application changed nothing but an address — that is the")
	fmt.Println("deployment story of paper §I-C.")
}
