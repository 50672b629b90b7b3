package rnb_test

import (
	"fmt"
	"log"
	"time"

	"rnb"
)

// The examples below are compiled (not executed) documentation: they
// assume a running memcached-protocol tier, e.g. several cmd/rnbmemd
// processes.

func ExampleNewClient() {
	client, err := rnb.NewClient(
		[]string{"10.0.0.1:11211", "10.0.0.2:11211", "10.0.0.3:11211"},
		rnb.WithReplicas(3),
		rnb.WithTimeout(2*time.Second),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	if err := client.Set(&rnb.Item{Key: "user:42:status", Value: []byte("hello")}); err != nil {
		log.Fatal(err)
	}
	it, err := client.Get("user:42:status")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(it.Value))
}

func ExampleClient_GetMulti() {
	client, err := rnb.NewClient([]string{"10.0.0.1:11211", "10.0.0.2:11211"})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	keys := []string{"friend:1:status", "friend:2:status", "friend:3:status"}
	items, stats, err := client.GetMulti(keys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d items in %d transactions (%d hitchhikers)\n",
		len(items), stats.Transactions, stats.Hitchhikers)
}

func ExampleClient_GetMultiLimit() {
	client, err := rnb.NewClient([]string{"10.0.0.1:11211", "10.0.0.2:11211"})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// "Fetch at least 90 of these 100 candidate posts" — the planner
	// skips the stragglers that would each cost an extra transaction.
	keys := make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("post:%04d", i)
	}
	items, stats, err := client.GetMultiLimit(keys, 90)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d items in %d transactions\n", len(items), stats.Transactions)
}

func ExampleWithLoader() {
	loadFromDB := func(keys []string) (map[string][]byte, error) {
		out := make(map[string][]byte, len(keys))
		for _, k := range keys {
			out[k] = []byte("row for " + k) // SELECT ... WHERE key IN (...)
		}
		return out, nil
	}
	client, err := rnb.NewClient([]string{"10.0.0.1:11211"}, rnb.WithLoader(loadFromDB))
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Keys missing from the whole cache tier are fetched through the
	// loader and written back — classic cache-aside, RnB-shaped.
	items, stats, err := client.GetMulti([]string{"maybe-cached"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(items), stats.Loaded)
}
