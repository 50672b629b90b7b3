// Package obs is the unified observability layer: a lock-free
// log-linear latency histogram (this file), per-request lifecycle
// spans kept by one request recorder — recent ring, slow ring, traced
// reservoir (recorder.go) — and a Prometheus-text-format metric
// registry with a stable, sorted namespace served over HTTP alongside
// pprof (registry.go, http.go).
//
// The paper's argument (§III-B, §V) is quantitative: RnB is judged by
// measured per-transaction cost and by tail behavior under load, not
// by means. Everything in this package exists so a running client,
// proxy, or benchmark can answer "where did the time go, and what is
// the p99" without stopping.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-linear, HdrHistogram style: values (nanoseconds)
// are bucketed by power of two, with each power subdivided into
// subCount linear sub-buckets, so the relative quantization error is
// bounded by 1/subCount (~3.1%) at every magnitude. Values below
// subCount nanoseconds are recorded exactly.
const (
	subBits  = 5
	subCount = 1 << subBits // linear sub-buckets per power of two

	// Group 0 holds the exact values [0, subCount); groups 1.. hold one
	// power of two each, for MSB positions subBits..62 (any non-negative
	// int64 nanosecond count fits).
	numGroups  = 64 - subBits
	numBuckets = numGroups * subCount
)

// bucketIndex maps a non-negative nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	if ns < subCount {
		return int(ns)
	}
	msb := 63 - bits.LeadingZeros64(uint64(ns))
	g := msb - subBits + 1
	sub := int((uint64(ns) >> uint(msb-subBits)) & (subCount - 1))
	return g*subCount + sub
}

// bucketUpper returns the largest nanosecond value the bucket holds —
// the value quantiles report, so quantiles never under-estimate.
func bucketUpper(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	g := idx / subCount
	sub := idx % subCount
	msb := g + subBits - 1
	shift := uint(msb - subBits)
	lower := (int64(subCount) + int64(sub)) << shift
	return lower + (int64(1) << shift) - 1
}

// Hist is a concurrent latency histogram: every operation is a handful
// of atomic adds, with no locks anywhere, so writers on different CPUs
// never serialize. The zero value is ready to use.
type Hist struct {
	counts [numBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Hist) Observe(d time.Duration) { h.ObserveNS(int64(d)) }

// ObserveNS records one duration given in nanoseconds.
func (h *Hist) ObserveNS(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.n.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.n.Load() }

// SumNS returns the sum of all observations in nanoseconds.
func (h *Hist) SumNS() int64 { return h.sum.Load() }

// Quantile returns the smallest recorded magnitude d such that at
// least a fraction q of observations are <= d, with relative error
// bounded by 1/subCount. q is clamped to [0, 1]; an empty histogram
// returns 0.
func (h *Hist) Quantile(q float64) time.Duration {
	return h.Snapshot().Quantile(q)
}

// Snapshot copies the histogram's current state for consistent
// reading (quantiles, Prometheus rendering) while writers continue.
func (h *Hist) Snapshot() *HistSnapshot {
	s := &HistSnapshot{N: h.n.Load(), SumNS: h.sum.Load()}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time, plain (non-atomic) copy of a Hist.
type HistSnapshot struct {
	Counts [numBuckets]uint64
	N      uint64
	SumNS  int64
}

// Quantile is Hist.Quantile over the snapshot.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := uint64(math.Ceil(q * float64(s.N)))
	if need == 0 {
		need = 1
	}
	var acc uint64
	for i, c := range s.Counts {
		acc += c
		if acc >= need {
			return time.Duration(bucketUpper(i))
		}
	}
	return time.Duration(bucketUpper(numBuckets - 1))
}

// Mean returns the mean observation, or 0 with no data.
func (s *HistSnapshot) Mean() time.Duration {
	if s.N == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(s.N))
}

// CumulativeLE returns how many observations fall in buckets whose
// upper bound is <= ns — the cumulative count Prometheus "le" buckets
// are built from. Boundary error is one log-linear bucket (~3.1%).
func (s *HistSnapshot) CumulativeLE(ns int64) uint64 {
	var acc uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if bucketUpper(i) > ns {
			break
		}
		acc += c
	}
	return acc
}
