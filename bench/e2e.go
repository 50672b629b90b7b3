package main

import (
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// sample is one verified request: its latency and when it completed.
type sample struct {
	latNS uint32
	atUS  uint32 // completion time since the measured phase began
}

// sliceLen cuts the measured phase into equal time slices (at least
// one), each with its own rate, CPU per request and median latency. A
// slice holds 2 000 to 18 000 requests and about one GC cycle.
const sliceLen = 250 * time.Millisecond

// quietShare picks the slices the timing metrics are read from: the
// tenth of them with the highest rate. req_per_s is the median of
// their rates and p50_us the median of their median latencies. This
// machine is a few cores of a shared host whose neighbours slow it by
// 20-40% for ten seconds to a minute at a time. Interference only ever
// lowers the rate, so the fast slices show the program's own speed,
// which repeats from run to run about twice as closely as the median
// over all slices does (README.md, "How steady it is"). Every slice's
// values go to the -out file.
const quietShare = 0.10

// tick is the sampler's reading at a slice boundary.
type tick struct {
	at   time.Duration
	done int64
	cpu  float64
}

// runEndToEnd is the untraced run: set up, drive the closed loop of
// `clients` goroutines for the given time, and report what a user of
// the system sees. Set-up repeats z.setups times (setup_s is the
// median); the extra set-ups come after the measured phase so that
// peak RSS is that of one system, not of several.
func runEndToEnd(sp *spec, seed int64, seconds float64, z sizes) (*result, error) {
	m := newMetricSet(endToEnd)
	res := newResult(sp, "end_to_end", seed, seconds, m)
	res.HostSpinMS[0] = hostSpinMS(z.spinIters)

	e, setupS, err := setUp(sp, seed, z, clients)
	if err != nil {
		return nil, err
	}
	res.PortBase, res.StreamSHA256 = e.portBase, e.st.sha
	setups := []float64{setupS}

	// Start every run from a collected heap, so the allocation and GC
	// work measured is the phase's own.
	runtime.GC()
	measured := e.st.ops[e.st.warm:]
	var (
		samples [clients][]sample
		failed  [clients]int
		done    [clients]atomic.Int64
		ms0     runtime.MemStats
		ms1     runtime.MemStats
	)
	for w := range samples {
		samples[w] = make([]sample, 0, 1<<20)
		e.items[w] = 0
	}
	total := time.Duration(seconds * float64(time.Second))
	slices := max(int(total/sliceLen), 1)
	slice := total / time.Duration(slices)
	runtime.ReadMemStats(&ms0)
	tier0 := e.tierStats()
	start := time.Now()
	deadline := start.Add(total)

	// The sampler reads progress and CPU time at every slice boundary.
	ticks := []tick{{cpu: cpuSeconds()}}
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for k := 1; k <= slices; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * slice)))
			t := tick{at: time.Since(start), cpu: cpuSeconds()}
			for w := range done {
				t.done += done[w].Load()
			}
			ticks = append(ticks, t)
		}
	}()
	eachClient(clients, func(w int) {
		// Client w owns requests w, w+clients, ... and wraps around the
		// generated stream; its parity never changes (len is even).
		now := time.Now()
		for i := w; now.Before(deadline); i += clients {
			ok := e.exec(w, &measured[i%len(measured)])
			t := time.Now()
			if ok {
				samples[w] = append(samples[w], sample{latNS: uint32(t.Sub(now)), atUS: uint32(t.Sub(start) / time.Microsecond)})
			} else {
				failed[w]++
			}
			done[w].Add(1)
			now = t
		}
	})
	<-sampled
	tier1 := e.tierStats()
	runtime.ReadMemStats(&ms1)
	rss := peakRSSMB()
	e.close()
	res.HostSpinMS[1] = hostSpinMS(z.spinIters)
	res.Noisy = noisy(res.HostSpinMS[0], res.HostSpinMS[1])

	for len(setups) < z.setups {
		e2, s, err := setUp(sp, seed, z, clients)
		if err != nil {
			return nil, err
		}
		e2.close()
		setups = append(setups, s)
	}

	items := 0
	lat := make([][]float64, slices)
	for w := range samples {
		res.Samples += len(samples[w])
		res.Failed += failed[w]
		items += e.items[w]
		for _, s := range samples[w] {
			// A request in flight at the deadline completes after it; it
			// belongs to the last slice.
			k := min(int(time.Duration(s.atUS)*time.Microsecond/slice), slices-1)
			lat[k] = append(lat[k], float64(s.latNS)/1e3)
		}
	}
	res.Attempted = res.Samples + res.Failed
	res.FailShare = ratio(float64(res.Failed), float64(res.Attempted))
	res.ItemsPerReq = ratio(float64(items), float64(res.Samples))

	var rate, cpu, p50 []float64
	for k := 1; k < len(ticks); k++ {
		n := float64(ticks[k].done - ticks[k-1].done)
		if n == 0 {
			continue // a stalled slice has no rate or latency to rank
		}
		rate = append(rate, ratio(n, (ticks[k].at-ticks[k-1].at).Seconds()))
		cpu = append(cpu, ratio((ticks[k].cpu-ticks[k-1].cpu)*1e6, n))
		sort.Float64s(lat[k-1])
		p50 = append(p50, quantile(lat[k-1], 0.50))
	}

	res.Slices = map[string][]float64{"req_per_s": rate, "p50_us": p50, "cpu_us_per_req": cpu}
	byRate := make([]int, len(rate))
	for i := range byRate {
		byRate[i] = i
	}
	sort.Slice(byRate, func(a, b int) bool { return rate[byRate[a]] > rate[byRate[b]] })
	var quietRate, quietP50 []float64
	for _, i := range byRate[:min(max(int(quietShare*float64(len(byRate))), 1), len(byRate))] {
		quietRate, quietP50 = append(quietRate, rate[i]), append(quietP50, p50[i])
	}

	// Failed requests complete nothing: they count in attempted only.
	m.set("req_per_s", median(quietRate)*(1-res.FailShare))
	m.set("p50_us", median(quietP50))
	m.set("tpr", ratio(float64(tier1.txns-tier0.txns), float64(res.Attempted)))
	m.set("allocs_per_req", ratio(float64(ms1.Mallocs-ms0.Mallocs), float64(res.Attempted)))
	m.set("setup_s", median(setups))
	m.set("peak_rss_mb", rss)
	return res, nil
}
