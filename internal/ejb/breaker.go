package ejb

import (
	"sync"
	"time"
)

// Breaker states. A breaker guards one container address: closed passes
// calls through, open rejects them outright for a cooldown, half-open
// lets exactly one probe through to test whether the container
// recovered.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// defaultFailureThreshold is how many consecutive failures trip a
// closed breaker open.
const defaultFailureThreshold = 3

// defaultCooldown is how long an open breaker rejects calls before
// allowing a half-open probe.
const defaultCooldown = 200 * time.Millisecond

// breaker is a per-address circuit breaker. It exists so that a dead
// container costs one dial timeout per cooldown instead of one per
// request: once tripped, calls fail fast to that address and the client
// stub fails over to the next healthy one.
type breaker struct {
	mu         sync.Mutex
	state      string
	failures   int       // consecutive failures while closed
	openedAt   time.Time // when the breaker last tripped
	probing    bool      // a half-open probe is in flight
	threshold  int
	cooldown   time.Duration
	opens      int64            // lifetime count of closed/half-open -> open trips
	lastChange time.Time        // when the state last transitioned
	now        func() time.Time // clock hook for tests
}

func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold <= 0 {
		threshold = defaultFailureThreshold
	}
	if cooldown <= 0 {
		cooldown = defaultCooldown
	}
	return &breaker{state: BreakerClosed, threshold: threshold, cooldown: cooldown, now: time.Now}
}

// allow reports whether a call to this address may proceed. In the open
// state it starts rejecting until the cooldown elapses, then transitions
// to half-open and admits exactly one probe; further calls keep failing
// fast until the probe reports success or failure.
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.lastChange = b.now()
		b.probing = true
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// success records a successful call: the probe (or any closed-state
// call) resets the breaker to closed.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerClosed {
		b.lastChange = b.now()
	}
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
}

// failure records a failed call: a failed half-open probe re-opens
// immediately; in the closed state, threshold consecutive failures trip
// the breaker.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.open()
		b.probing = false
		return
	}
	b.failures++
	if b.state == BreakerClosed && b.failures >= b.threshold {
		b.open()
	}
}

// open trips the breaker (caller holds b.mu), stamping the transition.
func (b *breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.lastChange = b.openedAt
	b.opens++
}

// breakerStatus is the full observable state of one breaker, feeding
// the /healthz transition report.
type breakerStatus struct {
	state      string
	failures   int
	opens      int64
	openedAt   time.Time // zero if never opened
	lastChange time.Time // zero if never transitioned
	cooldown   time.Duration
}

func (b *breaker) status() breakerStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	return breakerStatus{
		state:      b.state,
		failures:   b.failures,
		opens:      b.opens,
		openedAt:   b.openedAt,
		lastChange: b.lastChange,
		cooldown:   b.cooldown,
	}
}
