package rnb

import (
	"sync"
	"sync/atomic"
	"time"

	"rnb/internal/obs"
)

// Resilience tracks the client's failure-handling machinery: breaker
// transitions, half-open probe outcomes, and read re-plans. All fields
// are atomics, bumped in place; the zero value is ready.
type Resilience struct {
	BreakerOpened   atomic.Uint64
	BreakerHalfOpen atomic.Uint64
	BreakerClosed   atomic.Uint64

	Probes         atomic.Uint64
	ProbeSuccesses atomic.Uint64
	ProbeFailures  atomic.Uint64

	Replans           atomic.Uint64
	RetryTransactions atomic.Uint64
}

// register names every field, once, for every rendering of reg.
func (r *Resilience) register(reg *obs.Registry) {
	reg.Counter("rnb_resilience_breaker_opened", "Breaker trips: closed or half-open to open.", r.BreakerOpened.Load)
	reg.Counter("rnb_resilience_breaker_half_open", "Breakers whose cooldown elapsed: open to half-open.", r.BreakerHalfOpen.Load)
	reg.Counter("rnb_resilience_breaker_closed", "Breakers re-closed by a successful probe: half-open to closed.", r.BreakerClosed.Load)
	reg.Counter("rnb_resilience_probes", "Half-open probes launched.", r.Probes.Load)
	reg.Counter("rnb_resilience_probe_successes", "Half-open probes the server answered.", r.ProbeSuccesses.Load)
	reg.Counter("rnb_resilience_probe_failures", "Half-open probes that failed and re-opened the breaker.", r.ProbeFailures.Load)
	reg.Counter("rnb_resilience_replans", "Mid-request re-plan rounds after a transaction failed.", r.Replans.Load)
	reg.Counter("rnb_resilience_retry_transactions", "Transactions issued by re-plan rounds.", r.RetryTransactions.Load)
}

// BreakerState is a per-server circuit-breaker state, exposed through
// Client.ServerStates for operators.
type BreakerState int32

const (
	// BreakerClosed: the server is healthy and participates in plans.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the server tripped on consecutive failures; plans
	// route around it until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; the server is still
	// excluded from plans, but a single probe request is allowed to
	// decide between re-closing and re-opening.
	BreakerHalfOpen
)

// String renders the state the way operators see it in stats output.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// breaker is one server's circuit breaker:
//
//	closed --threshold consecutive failures--> open
//	open --cooldown elapses--> half-open
//	half-open --probe succeeds--> closed
//	half-open --probe fails--> open (cooldown restarts)
//
// A cooldown <= 0 disables tripping entirely (failures are still
// counted). The zero threshold is treated as 1: the first failure
// trips, matching the old WithFailureCooldown quarantine behaviour.
type breaker struct {
	mu        sync.Mutex
	state     BreakerState
	fails     int // consecutive failures observed while closed
	threshold int
	cooldown  time.Duration
	openedAt  time.Time
	probing   bool

	// onTransition, when set, is called (with the lock held; keep it
	// cheap) for every state change — the metrics hook.
	onTransition func(from, to BreakerState)
}

func newBreaker(threshold int, cooldown time.Duration, onTransition func(from, to BreakerState)) *breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &breaker{threshold: threshold, cooldown: cooldown, onTransition: onTransition}
}

// transitionLocked moves to state to, firing the hook.
func (b *breaker) transitionLocked(to BreakerState) {
	if b.state == to {
		return
	}
	from := b.state
	b.state = to
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

// tickLocked advances open -> half-open once the cooldown has elapsed.
func (b *breaker) tickLocked() {
	if b.state == BreakerOpen && time.Since(b.openedAt) >= b.cooldown {
		b.transitionLocked(BreakerHalfOpen)
	}
}

// available reports whether plans may route to this server. Open and
// half-open servers are both excluded — a half-open server re-enters
// plans only after its probe succeeds.
func (b *breaker) available() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	return b.state == BreakerClosed
}

// onFailure records a failed operation, tripping the breaker at the
// consecutive-failure threshold (no-op when cooldown <= 0).
func (b *breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.cooldown <= 0 {
		return
	}
	// Half-open re-opens at once: a regular operation (e.g. a write,
	// which does not consult the breaker) failed ahead of the probe.
	if b.state == BreakerHalfOpen || (b.state == BreakerClosed && b.fails >= b.threshold) {
		b.openedAt = time.Now()
		b.transitionLocked(BreakerOpen)
	}
}

// onSuccess records a successful operation, resetting the failure run
// (and closing a half-open breaker if a regular request somehow got
// through ahead of the probe).
func (b *breaker) onSuccess() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	if b.state == BreakerHalfOpen {
		b.transitionLocked(BreakerClosed)
	}
}

// tryAcquireProbe grants the half-open state's single probe slot.
func (b *breaker) tryAcquireProbe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	if b.state != BreakerHalfOpen || b.probing {
		return false
	}
	b.probing = true
	return true
}

// onProbeResult settles the probe: success closes the breaker, failure
// re-opens it and restarts the cooldown.
func (b *breaker) onProbeResult(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if ok {
		b.fails = 0
		b.transitionLocked(BreakerClosed)
		return
	}
	b.openedAt = time.Now()
	b.transitionLocked(BreakerOpen)
}

// snapshot returns the current state (ticking open -> half-open) and
// the consecutive-failure count.
func (b *breaker) snapshot() (BreakerState, int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tickLocked()
	return b.state, b.fails
}
