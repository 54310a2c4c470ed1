package mvc

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo/internal/descriptor"
)

// ResilientBusiness decorates a Business with bounded retries for
// idempotent unit reads: a transient business-tier failure (flapping
// container, dropped connection, injected fault) is absorbed by backing
// off and trying again instead of surfacing as an error page. Backoff
// is exponential with full jitter so a burst of failing requests does
// not re-converge on the recovering container in lockstep.
//
// Operations are never retried: the tier boundary cannot tell a lost
// response from a lost request, and re-running a write risks executing
// it twice. ExecuteOperation passes straight through.
type ResilientBusiness struct {
	Inner Business
	// MaxAttempts bounds total tries per unit read (0 selects the
	// default of 3; any other value below 2 tries once, without retries).
	MaxAttempts int

	// Retries counts retry attempts actually performed (for metrics).
	Retries atomic.Int64

	rngMu sync.Mutex
	rng   *rand.Rand
}

// NewResilientBusiness wraps inner with the default retry policy,
// seeding the jitter source deterministically for reproducible tests.
func NewResilientBusiness(inner Business, seed int64) *ResilientBusiness {
	return &ResilientBusiness{Inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// ComputeUnit implements Business as a batch of one: the retry loop
// lives once, in ComputeUnits (batch.go).
func (rb *ResilientBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	r := rb.ComputeUnits(ctx, []UnitCall{{D: d, Inputs: inputs}})[0]
	return r.Bean, r.Err
}

// ExecuteOperation implements Business by pure delegation — writes are
// not idempotent, so they get exactly one attempt.
func (rb *ResilientBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	return rb.Inner.ExecuteOperation(ctx, d, inputs)
}

// The backoff before the first retry is at most baseBackoff; each
// later attempt doubles it, up to maxBackoff. The actual sleep is
// uniform in [0, cap] — full jitter.
const (
	baseBackoff = 2 * time.Millisecond
	maxBackoff  = 50 * time.Millisecond
)

// backoffCap is the longest sleep before attempt n (1-based): doubling
// saturates at maxBackoff, so no attempt count overflows it.
func backoffCap(attempt int) time.Duration {
	cap := baseBackoff
	for i := 1; i < attempt && cap < maxBackoff; i++ {
		cap *= 2
	}
	return min(cap, maxBackoff)
}

// sleep backs off before attempt n (1-based) with full jitter, waking
// early if the request context expires.
func (rb *ResilientBusiness) sleep(ctx context.Context, attempt int) error {
	cap := backoffCap(attempt)
	rb.rngMu.Lock()
	var d time.Duration
	if rb.rng != nil {
		d = time.Duration(rb.rng.Int63n(int64(cap) + 1))
	} else {
		d = cap / 2
	}
	rb.rngMu.Unlock()
	if d <= 0 {
		return ctx.Err()
	}
	return Sleep(ctx, d)
}
