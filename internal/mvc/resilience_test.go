package mvc

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/descriptor"
	"webmlgo/internal/rdb"
)

// panickyBusiness panics on one designated unit — a stand-in for a
// user-supplied custom component running arbitrary code.
type panickyBusiness struct {
	countingBusiness
	panicUnit string
}

func (p *panickyBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	if d.ID == p.panicUnit {
		panic("kaboom in " + d.ID)
	}
	return p.countingBusiness.ComputeUnit(ctx, d, inputs)
}

// TestPageComputeRecoversPanickingUnit: a panic surfaces as the page's
// error wherever it happens below the one level path — in a unit service
// of the in-process business, in a per-unit business's ComputeUnit, and
// in a batching business's ComputeUnits. An uncaught panic would kill
// the whole process.
func TestPageComputeRecoversPanickingUnit(t *testing.T) {
	repo := descriptor.NewRepository()
	fanPage(repo, 8)
	local := NewLocalBusiness(nil)
	local.RegisterUnitService("data", UnitServiceFunc(func(ctx context.Context, _ *rdb.DB, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
		if d.ID == "mid03" {
			panic("kaboom in " + d.ID)
		}
		return &UnitBean{UnitID: d.ID, Kind: d.Kind}, nil
	}))
	for name, b := range map[string]Business{
		"unit service": local,
		"ComputeUnit":  &panickyBusiness{panicUnit: "mid03"},
		"ComputeUnits": &batchingBusiness{Business: &panickyBusiness{panicUnit: "mid03"}},
	} {
		svc := &PageService{Repo: repo, Business: b}
		_, err := svc.ComputePage(context.Background(), "fan", nil, nil)
		if err == nil {
			t.Fatalf("%s: panic swallowed into a successful page", name)
		}
		if !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "mid03") {
			t.Fatalf("%s: err = %v", name, err)
		}
	}
}

// flakyBusiness fails every call while the switch is on.
type flakyBusiness struct {
	countingBusiness
	failing atomic.Bool
}

func (f *flakyBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	if f.failing.Load() {
		return nil, fmt.Errorf("business tier down")
	}
	return f.countingBusiness.ComputeUnit(ctx, d, inputs)
}

// TestDegradedServingBounds drives the degraded-mode contract: a
// TTL-expired bean is served in place of a business-tier failure while it
// is younger than MaxStaleness, refused beyond the bound, and an
// invalidated bean is never served at any age.
func TestDegradedServingBounds(t *testing.T) {
	inner := &flakyBusiness{}
	bc := cache.NewBeanCache(64)
	cb := NewCachedBusiness(inner, bc)
	cb.MaxStaleness = time.Hour
	d := cachedUnit()
	inputs := map[string]Value{"oid": int64(1)}
	key := beanKey(d.ID, inputs)

	stale := &UnitBean{UnitID: d.ID, Kind: d.Kind, Fields: []string{"v"}, Nodes: []Node{{Values: MustCells("from-before-the-outage")}}}
	bc.Put(key, stale, d.Reads, 5*time.Millisecond)
	time.Sleep(10 * time.Millisecond) // the TTL lapses; the entry is retained
	inner.failing.Store(true)

	// Within the bound: the expired bean beats an error page.
	got, err := cb.ComputeUnit(context.Background(), d, inputs)
	if err != nil {
		t.Fatalf("degraded serving failed: %v", err)
	}
	if got.Nodes[0].Values[0].Value() != "from-before-the-outage" {
		t.Fatalf("degraded bean = %+v", got)
	}
	if bc.Stats().DegradedHits == 0 {
		t.Fatal("degraded hit not counted")
	}

	// Beyond the bound: the failure surfaces.
	cb.MaxStaleness = time.Nanosecond
	if _, err := cb.ComputeUnit(context.Background(), d, inputs); err == nil {
		t.Fatal("served a bean older than the staleness bound")
	}

	// Invalidated data never resurfaces, whatever the bound: operations
	// remove beans outright, so degraded mode cannot serve written-over
	// state.
	cb.MaxStaleness = time.Hour
	bc.Put(key, stale, d.Reads, 5*time.Millisecond)
	bc.Invalidate(d.Reads...)
	if _, err := cb.ComputeUnit(context.Background(), d, inputs); err == nil {
		t.Fatal("degraded mode served invalidated data")
	}
}

// nthTimeLucky fails unit reads until call number succeedOn.
type nthTimeLucky struct {
	calls     atomic.Int64
	ops       atomic.Int64
	succeedOn int64
}

func (n *nthTimeLucky) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	if c := n.calls.Add(1); c < n.succeedOn {
		return nil, fmt.Errorf("transient failure %d", c)
	}
	return &UnitBean{UnitID: d.ID, Kind: d.Kind}, nil
}

func (n *nthTimeLucky) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	n.ops.Add(1)
	return nil, fmt.Errorf("operation failed")
}

// TestResilientRetriesTransientFailure: transient unit-read failures are
// absorbed within the attempt budget and counted; persistent ones exhaust
// it.
func TestResilientRetriesTransientFailure(t *testing.T) {
	inner := &nthTimeLucky{succeedOn: 3}
	rb := NewResilientBusiness(inner, 42)
	bean, err := rb.ComputeUnit(context.Background(), cachedUnit(), nil)
	if err != nil {
		t.Fatalf("retries did not absorb transient failures: %v", err)
	}
	if bean == nil || bean.UnitID != "u1" {
		t.Fatalf("bean = %+v", bean)
	}
	if got := rb.Retries.Load(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}

	persistent := &nthTimeLucky{succeedOn: 10}
	rb2 := NewResilientBusiness(persistent, 42)
	if _, err := rb2.ComputeUnit(context.Background(), cachedUnit(), nil); err == nil {
		t.Fatal("persistent failure reported success")
	}
	if got := persistent.calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want the default budget of 3", got)
	}
}

// TestResilientNonPositiveAttemptsTryOnce: an attempt budget below the
// default disables retries but still tries once — a negative budget must
// not drop the unit with neither a bean nor an error.
func TestResilientNonPositiveAttemptsTryOnce(t *testing.T) {
	for _, n := range []int{-1, 1} {
		inner := &nthTimeLucky{succeedOn: 10}
		rb := NewResilientBusiness(inner, 42)
		rb.MaxAttempts = n
		bean, err := rb.ComputeUnit(context.Background(), cachedUnit(), nil)
		if err == nil || !strings.Contains(err.Error(), "transient failure 1") {
			t.Fatalf("MaxAttempts=%d: bean %+v, err %v; want the inner error", n, bean, err)
		}
		if got := inner.calls.Load(); got != 1 {
			t.Fatalf("MaxAttempts=%d: inner called %d times, want exactly 1", n, got)
		}
	}
}

// TestResilientNeverRetriesOperations pins the write-safety rule at the
// retry layer: one attempt, whatever the outcome.
func TestResilientNeverRetriesOperations(t *testing.T) {
	inner := &nthTimeLucky{succeedOn: 2}
	rb := NewResilientBusiness(inner, 1)
	if _, err := rb.ExecuteOperation(context.Background(), writeOp(), nil); err == nil {
		t.Fatal("operation error swallowed")
	}
	if got := inner.ops.Load(); got != 1 {
		t.Fatalf("operation attempted %d times, want exactly 1", got)
	}
}

// canceledBusiness reflects the context error back, like a remote stub
// whose call was cut off by the request deadline.
type canceledBusiness struct{ calls atomic.Int64 }

func (c *canceledBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	c.calls.Add(1)
	return nil, ctx.Err()
}

func (c *canceledBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	return nil, ctx.Err()
}

// TestResilientStopsOnContextErrors: once the request budget is gone,
// more attempts cannot help — the retry loop must not burn backoff time
// on a dead request.
func TestResilientStopsOnContextErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inner := &canceledBusiness{}
	rb := NewResilientBusiness(inner, 1)
	_, err := rb.ComputeUnit(ctx, cachedUnit(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if got := inner.calls.Load(); got != 1 {
		t.Fatalf("retried a canceled request: %d attempts", got)
	}
}

// TestResilientBackoffSaturates: the backoff cap doubles from 2ms and
// saturates at 50ms however many attempts a deployment allows, so a
// late attempt (WithRetries(45) reaches attempt 44) sleeps at most the
// cap instead of overflowing the shift into a negative jitter bound.
func TestResilientBackoffSaturates(t *testing.T) {
	want := 2 * time.Millisecond
	for n := 1; n <= 64; n++ {
		if got := backoffCap(n); got != want {
			t.Fatalf("attempt %d: cap %v, want %v", n, got, want)
		}
		want = min(2*want, 50*time.Millisecond)
	}
	rb := NewResilientBusiness(nil, 1)
	for _, n := range []int{44, 64} {
		start := time.Now()
		if err := rb.sleep(context.Background(), n); err != nil {
			t.Fatalf("attempt %d: %v", n, err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("attempt %d slept %v, cap is 50ms", n, d)
		}
	}
}
