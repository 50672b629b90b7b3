package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketRoundTrip checks that every value lands in a bucket whose
// range contains it, and that the bucket upper bound never under- or
// over-estimates by more than the advertised relative error.
func TestBucketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	values := []int64{0, 1, 31, 32, 33, 63, 64, 65, 1000, 1e6, 1e9, 1e12, 1<<62 - 1}
	for i := 0; i < 10000; i++ {
		values = append(values, rng.Int63())
	}
	for _, v := range values {
		idx := bucketIndex(v)
		up := bucketUpper(idx)
		if up < v {
			t.Fatalf("bucketUpper(%d)=%d < value %d", idx, up, v)
		}
		if v >= subCount {
			// Relative error bound: the bucket width is lower/subCount.
			if float64(up-v) > float64(v)/subCount {
				t.Fatalf("value %d: upper %d exceeds relative error bound", v, up)
			}
		} else if up != v {
			t.Fatalf("small value %d not exact: upper %d", v, up)
		}
	}
}

// TestBucketUpperMonotone: CumulativeLE's early break depends on
// bucketUpper increasing with the index.
func TestBucketUpperMonotone(t *testing.T) {
	prev := int64(-1)
	for i := 0; i < numBuckets; i++ {
		up := bucketUpper(i)
		if up <= prev {
			t.Fatalf("bucketUpper(%d)=%d <= bucketUpper(%d)=%d", i, up, i-1, prev)
		}
		prev = up
	}
}

// TestQuantileErrorBound compares histogram quantiles against the
// exact order statistics of the same sample.
func TestQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &Hist{}
	var exact []int64
	for i := 0; i < 20000; i++ {
		// Log-uniform magnitudes, 1µs..1s — spans many bucket groups.
		ns := int64(float64(time.Microsecond) * math.Pow(1e6, rng.Float64()))
		h.ObserveNS(ns)
		exact = append(exact, ns)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)-1))]
		got := int64(h.Quantile(q))
		if got < want {
			t.Fatalf("q=%v: histogram %d under-estimates exact %d", q, got, want)
		}
		if float64(got-want) > 2*float64(want)/subCount {
			t.Fatalf("q=%v: histogram %d vs exact %d exceeds error bound", q, got, want)
		}
	}
}

// TestQuantileEdges covers the empty histogram and clamped q.
func TestQuantileEdges(t *testing.T) {
	h := &Hist{}
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	h.ObserveNS(10) // < subCount: recorded exactly
	if got := h.Quantile(-1); got != 10 {
		t.Fatalf("q<0 = %v, want 10ns", got)
	}
	if got := h.Quantile(2); got != 10 {
		t.Fatalf("q>1 = %v, want 10ns", got)
	}
	h.ObserveNS(-5) // clamps to 0
	if h.Count() != 2 || h.SumNS() != 10 {
		t.Fatalf("negative clamp: count=%d sum=%d", h.Count(), h.SumNS())
	}
}

// TestHistConcurrent hammers one histogram from many goroutines while
// a reader takes snapshots, then checks nothing was lost. Run with
// -race for the memory-model half of the claim.
func TestHistConcurrent(t *testing.T) {
	h := &Hist{}
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				_ = h.Quantile(0.99)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				h.ObserveNS(rng.Int63n(1e9))
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	if h.Count() != writers*perWriter {
		t.Fatalf("count = %d, want %d", h.Count(), writers*perWriter)
	}
	snap := h.Snapshot()
	var total uint64
	for _, c := range snap.Counts {
		total += c
	}
	if total != writers*perWriter {
		t.Fatalf("bucket sum = %d, want %d", total, writers*perWriter)
	}
}

// TestCumulativeLE pins the bucket-boundary semantics /metrics depends
// on.
func TestCumulativeLE(t *testing.T) {
	h := &Hist{}
	h.ObserveNS(int64(time.Millisecond))
	h.ObserveNS(int64(10 * time.Millisecond))
	h.ObserveNS(int64(time.Second))
	snap := h.Snapshot()
	if got := snap.CumulativeLE(int64(2 * time.Millisecond)); got != 1 {
		t.Fatalf("le 2ms = %d, want 1", got)
	}
	if got := snap.CumulativeLE(int64(100 * time.Millisecond)); got != 2 {
		t.Fatalf("le 100ms = %d, want 2", got)
	}
	if got := snap.CumulativeLE(int64(10 * time.Second)); got != 3 {
		t.Fatalf("le 10s = %d, want 3", got)
	}
	if got := snap.Mean(); got <= 0 {
		t.Fatalf("mean = %v, want > 0", got)
	}
}
