package fault

import (
	"context"
	"errors"
	"testing"
	"time"

	"webmlgo/internal/descriptor"
	"webmlgo/internal/mvc"
)

// okBusiness always succeeds, so every failure observed through a fault
// wrapper is an injected one.
type okBusiness struct{}

func (okBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.UnitBean, error) {
	return &mvc.UnitBean{UnitID: d.ID, Kind: d.Kind}, nil
}

func (okBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]mvc.Value) (*mvc.OpResult, error) {
	return &mvc.OpResult{OK: true}, nil
}

// TestDeterministicFaultSequence: the same seed yields the same fault
// sequence and counters — failing chaos runs must reproduce.
func TestDeterministicFaultSequence(t *testing.T) {
	run := func() (Counts, []bool) {
		in := New(Schedule{Seed: 7, ErrorProb: 0.3, LatencyProb: 0.2, Latency: time.Microsecond})
		b := WrapBusiness(okBusiness{}, in)
		d := &descriptor.Unit{ID: "u", Kind: "data"}
		outcomes := make([]bool, 0, 200)
		for i := 0; i < 200; i++ {
			_, err := b.ComputeUnit(context.Background(), d, nil)
			outcomes = append(outcomes, err == nil)
		}
		return in.Counts(), outcomes
	}
	c1, o1 := run()
	c2, o2 := run()
	if c1 != c2 {
		t.Fatalf("counts diverge across identical seeds: %+v vs %+v", c1, c2)
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("outcome %d diverges across identical seeds", i)
		}
	}
	if c1.Errors == 0 || c1.Latencies == 0 {
		t.Fatalf("schedule injected nothing: %+v", c1)
	}
}

// TestInjectedErrorIsTyped: injected failures are distinguishable from
// real ones.
func TestInjectedErrorIsTyped(t *testing.T) {
	in := New(Schedule{Seed: 1, ErrorProb: 1})
	b := WrapBusiness(okBusiness{}, in)
	_, err := b.ComputeUnit(context.Background(), &descriptor.Unit{ID: "u"}, nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if in.Counts().Errors != 1 {
		t.Fatalf("counts = %+v", in.Counts())
	}
}

// TestPanicInjection: PanicProb exercises the recovery paths for real.
func TestPanicInjection(t *testing.T) {
	in := New(Schedule{Seed: 1, PanicProb: 1})
	b := WrapBusiness(okBusiness{}, in)
	var recovered interface{}
	func() {
		defer func() { recovered = recover() }()
		b.ComputeUnit(context.Background(), &descriptor.Unit{ID: "u"}, nil) //nolint:errcheck // panics
	}()
	if recovered == nil {
		t.Fatal("no panic injected at probability 1")
	}
	if in.Counts().Panics != 1 {
		t.Fatalf("counts = %+v", in.Counts())
	}
}
