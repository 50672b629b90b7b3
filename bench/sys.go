package main

import (
	"io"
	"math"
	"net"
	"sort"
	"syscall"
	"time"
)

// cpuSeconds is the process's user+system CPU time so far; client and
// servers share the process, so it is whole-system CPU.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var spinSink uint64

// hostSpinMS times a fixed piece of work: an arithmetic loop, then
// loopback round trips between two goroutines (iters/2000 of them),
// because what a busy neighbour slows most on a virtual machine is
// waking an idle CPU, which arithmetic never does. Run before and
// after a workload, it shows whether the host changed speed meanwhile.
func hostSpinMS(iters int) float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	pingPong(iters / 2000)
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// pingPong bounces one byte over a loopback connection n times. A
// failure only shortens the spin, which then reads as a fast host.
func pingPong(n int) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return
	}
	defer ln.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c) // ends when the dialer closes
	}()
	if c, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		b := []byte{0}
		for i := 0; i < n; i++ {
			if _, err := c.Write(b); err != nil {
				break
			}
			if _, err := c.Read(b); err != nil {
				break
			}
		}
		c.Close()
	} else {
		ln.Close() // unblocks Accept
	}
	<-echoed
}

// noisy reports whether two host spins differ by more than a tenth.
func noisy(before, after float64) bool {
	return math.Abs(before-after) > 0.1*math.Min(before, after)
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
