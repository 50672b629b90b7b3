package memcache

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkPoolSweep is the client's concurrency curve on raw loopback:
// an 8-key binary GetMulti (all hits, 100-byte values) issued by 1 to
// 128 callers through one connection and up to four. ns/op is wall time
// over operations completed by all callers together. The callers are
// long-lived goroutines whose stacks are already grown, so a deeper read
// path does not show here; BenchmarkFanoutGetMulti (root) is the fresh-
// goroutine case. EXPERIMENTS.md "PR 20" holds its parent/change table;
// end-to-end claims come from bench/run.sh, not from here.
func BenchmarkPoolSweep(b *testing.B) {
	srv := NewServer(NewStore(0))
	addr := serveTest(b, srv, nil)
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("sweep:%03d", i)
		if err := srv.Store().Set(&Item{Key: keys[i], Value: bytes.Repeat([]byte("v"), 100)}); err != nil {
			b.Fatal(err)
		}
	}
	run := func(b *testing.B, c Conn, callers int) {
		defer c.Close()
		var issued atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for issued.Add(1) <= int64(b.N) {
					items, err := c.GetMulti(keys)
					if err != nil || len(items) != len(keys) {
						b.Errorf("GetMulti: %d items, %v", len(items), err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	for _, size := range []int{1, 4} {
		for _, callers := range []int{1, 2, 8, 32, 128} {
			b.Run(fmt.Sprintf("size=%d/callers=%d", size, callers), func(b *testing.B) {
				p, err := NewPool(addr, 2*time.Second, PoolConfig{Size: size, Binary: true})
				if err != nil {
					b.Fatal(err)
				}
				run(b, p, callers)
			})
		}
	}
}
