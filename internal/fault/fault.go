// Package fault is the chaos harness of the resilience layer: it wraps
// the business tier with deterministic, seeded fault injection —
// latency spikes, error bursts, panics — so the failure containment the
// tier split promises (Section 4's application-server architecture only
// pays off when tier failures stop at the boundary) can be exercised
// and measured instead of waited for. The same seed always yields the
// same fault sequence, so failing runs reproduce.
package fault

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
)

// Schedule describes a deterministic fault mix. Probabilities are per
// business call in [0,1]; zero values inject nothing of that kind.
type Schedule struct {
	// Seed selects the deterministic random stream (0 = 1).
	Seed int64
	// LatencyProb is the chance a business call stalls for Latency.
	LatencyProb float64
	// Latency is the injected stall duration (default 5ms).
	Latency time.Duration
	// ErrorProb is the chance a business call fails with ErrInjected.
	ErrorProb float64
	// PanicProb is the chance a business call panics (exercising the
	// page service's and the container's recovery paths).
	PanicProb float64
}

// ErrInjected is the error returned by injected business-call failures.
var ErrInjected = fmt.Errorf("fault: injected error")

// Counts reports how many faults of each kind an Injector has fired.
type Counts struct {
	Latencies int64 `json:"latencies"`
	Errors    int64 `json:"errors"`
	Panics    int64 `json:"panics"`
}

// Injector draws fault decisions from one seeded stream. All wrappers
// built from the same Injector share the stream, so a fixed seed fixes
// the full fault sequence across business calls.
type Injector struct {
	sched Schedule

	mu  sync.Mutex
	rng *rand.Rand

	latencies atomic.Int64
	errors    atomic.Int64
	panics    atomic.Int64
}

// New returns an Injector for the schedule.
func New(sched Schedule) *Injector {
	seed := sched.Seed
	if seed == 0 {
		seed = 1
	}
	if sched.Latency <= 0 {
		sched.Latency = 5 * time.Millisecond
	}
	return &Injector{sched: sched, rng: rand.New(rand.NewSource(seed))}
}

// roll draws one uniform [0,1) decision from the shared stream.
func (in *Injector) roll() float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64()
}

// Counts snapshots the fired-fault counters.
func (in *Injector) Counts() Counts {
	return Counts{
		Latencies: in.latencies.Load(),
		Errors:    in.errors.Load(),
		Panics:    in.panics.Load(),
	}
}

// beforeCall fires at most one business-call fault: a latency stall
// (bounded by ctx), an injected error, or a panic.
func (in *Injector) beforeCall(ctx context.Context) error {
	s := in.sched
	if s.LatencyProb > 0 && in.roll() < s.LatencyProb {
		in.latencies.Add(1)
		t := time.NewTimer(s.Latency)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if s.ErrorProb > 0 && in.roll() < s.ErrorProb {
		in.errors.Add(1)
		return ErrInjected
	}
	if s.PanicProb > 0 && in.roll() < s.PanicProb {
		in.panics.Add(1)
		panic("fault: injected panic")
	}
	return nil
}

// Business wraps an mvc.Business with the injector's business-call
// faults. Both reads and writes are subjected: the resilience layer
// above decides which it may retry.
type Business struct {
	Inner mvc.Business
	In    *Injector
}

// WrapBusiness decorates inner with chaos from in.
func WrapBusiness(inner mvc.Business, in *Injector) *Business {
	return &Business{Inner: inner, In: in}
}

// ComputeUnit implements mvc.Business with fault injection.
func (b *Business) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
	if err := b.In.beforeCall(ctx); err != nil {
		return nil, err
	}
	return b.Inner.ComputeUnit(ctx, d, inputs)
}

// ExecuteOperation implements mvc.Business with fault injection.
func (b *Business) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.OpResult, error) {
	if err := b.In.beforeCall(ctx); err != nil {
		return nil, err
	}
	return b.Inner.ExecuteOperation(ctx, d, inputs)
}
