package rnb

import (
	"testing"
	"time"
)

func TestBreakerSuccessResetsRun(t *testing.T) {
	b := &breaker{cooldown: time.Hour}
	b.onFailure()
	b.onFailure()
	if st, fails := b.snapshot(); st != BreakerOpen || fails != 2 {
		t.Fatalf("after two failures: %v %d, want open 2", st, fails)
	}
	b.onSuccess()
	b.onFailure()
	if _, fails := b.snapshot(); fails != 1 {
		t.Fatalf("success did not reset the failure run: %d", fails)
	}
}

func TestBreakerDisabledByZeroCooldown(t *testing.T) {
	b := &breaker{}
	for i := 0; i < 10; i++ {
		b.onFailure()
	}
	if !b.available() {
		t.Fatal("disabled breaker tripped")
	}
	if _, fails := b.snapshot(); fails != 10 {
		t.Fatalf("failure run not counted: %d", fails)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := &breaker{cooldown: 20 * time.Millisecond}
	b.onFailure()
	if b.tryAcquireProbe() {
		t.Fatal("probe granted while open")
	}
	time.Sleep(30 * time.Millisecond)
	if b.available() {
		t.Fatal("half-open breaker reported available")
	}
	if !b.tryAcquireProbe() {
		t.Fatal("probe slot not granted when half-open")
	}
	if b.tryAcquireProbe() {
		t.Fatal("second concurrent probe granted")
	}
	b.onProbeResult(true)
	if !b.available() {
		t.Fatal("successful probe did not close the breaker")
	}
	if _, fails := b.snapshot(); fails != 0 {
		t.Fatalf("failure run survived the probe: %d", fails)
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b := &breaker{cooldown: 20 * time.Millisecond}
	b.onFailure()
	time.Sleep(30 * time.Millisecond)
	if !b.tryAcquireProbe() {
		t.Fatal("probe slot not granted")
	}
	b.onProbeResult(false)
	if st, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("failed probe left state %v", st)
	}
	// The cooldown restarts: half-open again after another interval,
	// and the probe slot is usable again.
	time.Sleep(30 * time.Millisecond)
	if !b.tryAcquireProbe() {
		t.Fatal("probe slot not re-granted after second cooldown")
	}
}

func TestBreakerFailureWhileHalfOpenReopens(t *testing.T) {
	b := &breaker{cooldown: 20 * time.Millisecond}
	b.onFailure()
	time.Sleep(30 * time.Millisecond)
	if st, _ := b.snapshot(); st != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", st)
	}
	b.onFailure() // e.g. a write, which does not consult the breaker
	if st, _ := b.snapshot(); st != BreakerOpen {
		t.Fatalf("failure while half-open left state %v", st)
	}
}

func TestBreakerTransitionHook(t *testing.T) {
	var seq []BreakerState
	b := &breaker{cooldown: 20 * time.Millisecond, onTransition: func(from, to BreakerState) {
		seq = append(seq, to)
	}}
	b.onFailure()
	b.snapshot() // no transition yet: still open
	time.Sleep(30 * time.Millisecond)
	b.snapshot() // ticks open -> half-open
	if !b.tryAcquireProbe() {
		t.Fatal("probe slot not granted")
	}
	b.onProbeResult(true)
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(seq) != len(want) {
		t.Fatalf("transitions %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("transitions %v, want %v", seq, want)
		}
	}
}

func TestBreakerStateString(t *testing.T) {
	cases := map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "unknown",
	}
	for st, want := range cases {
		if st.String() != want {
			t.Fatalf("%d.String() = %q, want %q", st, st.String(), want)
		}
	}
}
