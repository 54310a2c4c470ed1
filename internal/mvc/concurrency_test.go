package mvc

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"webmlgo/internal/cache"
	"webmlgo/internal/descriptor"
)

// gatedBusiness counts ComputeUnit invocations and can hold them on a
// gate so tests control when an in-flight computation finishes.
type gatedBusiness struct {
	computes atomic.Int64
	ops      atomic.Int64
	// gate, when non-nil, blocks ComputeUnit until closed.
	gate chan struct{}
	// entered signals each ComputeUnit entry when non-nil.
	entered chan struct{}
	// result built per call so tests can tell recomputations apart.
	mu      sync.Mutex
	payload string
}

func (g *gatedBusiness) setPayload(s string) {
	g.mu.Lock()
	g.payload = s
	g.mu.Unlock()
}

func (g *gatedBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	g.computes.Add(1)
	// Capture the payload at entry: the computation reads its database
	// snapshot when the query runs, not when the result is returned.
	g.mu.Lock()
	p := g.payload
	g.mu.Unlock()
	if g.entered != nil {
		g.entered <- struct{}{}
	}
	if g.gate != nil {
		<-g.gate
	}
	return &UnitBean{UnitID: d.ID, Kind: d.Kind, Fields: []string{"v"}, Nodes: []Node{{Values: MustCells(p)}}}, nil
}

func (g *gatedBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	g.ops.Add(1)
	return &OpResult{OK: true}, nil
}

func cachedUnit() *descriptor.Unit {
	return &descriptor.Unit{
		ID:    "u1",
		Kind:  "data",
		Reads: []string{"entity:volume"},
		Cache: &descriptor.CachePolicy{Enabled: true},
	}
}

func writeOp() *descriptor.Unit {
	return &descriptor.Unit{
		ID:     "op1",
		Kind:   "create",
		Writes: []string{"entity:volume"},
	}
}

// TestSingleflightCoalescesMisses is the acceptance test of the issue: K
// concurrent misses of the same key must cause exactly one database
// recomputation.
func TestSingleflightCoalescesMisses(t *testing.T) {
	inner := &gatedBusiness{gate: make(chan struct{}), entered: make(chan struct{}, 1), payload: "x"}
	cb := NewCachedBusiness(inner, cache.NewBeanCache(64))
	d := cachedUnit()

	const K = 16
	var wg sync.WaitGroup
	beans := make([]*UnitBean, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			beans[i], errs[i] = cb.ComputeUnit(context.Background(), d, map[string]Value{"oid": int64(1)})
		}(i)
	}
	<-inner.entered // the leader reached the database
	// Give the other K-1 goroutines time to miss and join the flight.
	time.Sleep(20 * time.Millisecond)
	close(inner.gate)
	wg.Wait()

	if n := inner.computes.Load(); n != 1 {
		t.Fatalf("inner computations = %d, want exactly 1", n)
	}
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if beans[i] == nil || beans[i].Nodes[0].Values[0].Value() != "x" {
			t.Fatalf("goroutine %d got %+v", i, beans[i])
		}
	}
	// The coalesced result was cached: one more call is a pure hit.
	if _, err := cb.ComputeUnit(context.Background(), d, map[string]Value{"oid": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if n := inner.computes.Load(); n != 1 {
		t.Fatalf("computations after cache hit = %d, want 1", n)
	}
}

// TestOperationForgetsInFlight pins the invalidation-awareness of the
// singleflight: an operation writing a tag while a computation of a
// dependent bean is in flight must prevent that computation's result from
// being cached, so the next request recomputes against post-write data.
func TestOperationForgetsInFlight(t *testing.T) {
	inner := &gatedBusiness{gate: make(chan struct{}), entered: make(chan struct{}, 1), payload: "pre-write"}
	cb := NewCachedBusiness(inner, cache.NewBeanCache(64))
	d := cachedUnit()

	done := make(chan *UnitBean, 1)
	go func() {
		b, err := cb.ComputeUnit(context.Background(), d, nil)
		if err != nil {
			t.Error(err)
		}
		done <- b
	}()
	<-inner.entered // leader is now inside the database call

	// The write lands while the read is still computing.
	if _, err := cb.ExecuteOperation(context.Background(), writeOp(), nil); err != nil {
		t.Fatal(err)
	}
	inner.setPayload("post-write")
	close(inner.gate)
	b := <-done
	// The overlapped reader may legitimately see pre-write data...
	if got := b.Nodes[0].Values[0].Value(); got != "pre-write" {
		t.Fatalf("overlapped reader got %v", got)
	}
	// ...but that result must NOT have been cached: a fresh request
	// recomputes and sees post-write data.
	inner.gate = nil
	inner.entered = nil
	b2, err := cb.ComputeUnit(context.Background(), d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := b2.Nodes[0].Values[0].Value(); got != "post-write" {
		t.Fatalf("post-write request got %v (stale bean cached)", got)
	}
	if n := inner.computes.Load(); n != 2 {
		t.Fatalf("computations = %d, want 2 (pre-write flight + fresh recompute)", n)
	}
}

// countingBusiness records which units computed and on which goroutine
// serialization order, without gating.
type countingBusiness struct {
	computes atomic.Int64
	delay    time.Duration
}

func (c *countingBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	c.computes.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	// Echo the inputs so parameter propagation is observable.
	fields := []string{"id"}
	for k := range inputs {
		fields = append(fields, k)
	}
	sort.Strings(fields[1:])
	vals := []Value{d.ID}
	for _, k := range fields[1:] {
		vals = append(vals, inputs[k])
	}
	return &UnitBean{UnitID: d.ID, Kind: d.Kind, Fields: fields, Nodes: []Node{{Values: MustCells(vals...)}}}, nil
}

func (c *countingBusiness) ExecuteOperation(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*OpResult, error) {
	return &OpResult{OK: true}, nil
}

// fanPage builds a diamond page: root feeds n middle units which all feed
// one sink, exercising multi-unit levels and cross-level propagation.
func fanPage(repo *descriptor.Repository, n int) *descriptor.Page {
	pd := &descriptor.Page{ID: "fan"}
	pd.Units = append(pd.Units, descriptor.UnitRef{ID: "root"})
	repo.PutUnit(&descriptor.Unit{ID: "root", Kind: "data"})
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("mid%02d", i)
		pd.Units = append(pd.Units, descriptor.UnitRef{ID: id})
		repo.PutUnit(&descriptor.Unit{ID: id, Kind: "data"})
		pd.Edges = append(pd.Edges, descriptor.Edge{
			From: "root", To: id,
			Params: []descriptor.EdgeParam{{Source: "id", Target: "parent"}},
		})
		pd.Edges = append(pd.Edges, descriptor.Edge{
			From: id, To: "sink",
			Params: []descriptor.EdgeParam{{Source: "id", Target: "from-" + id}},
		})
	}
	pd.Units = append(pd.Units, descriptor.UnitRef{ID: "sink"})
	repo.PutUnit(&descriptor.Unit{ID: "sink", Kind: "data"})
	repo.PutPage(pd)
	return pd
}

// recordingBusiness is countingBusiness that also records the order in
// which units were computed.
type recordingBusiness struct {
	countingBusiness
	mu    sync.Mutex
	order []string
}

func (r *recordingBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	r.mu.Lock()
	r.order = append(r.order, d.ID)
	r.mu.Unlock()
	return r.countingBusiness.ComputeUnit(ctx, d, inputs)
}

// batchingBusiness puts the batch interface over a per-unit business: a
// level arrives as one ComputeUnits call, whose items run in order.
type batchingBusiness struct {
	Business
	levels atomic.Int64
}

func (b *batchingBusiness) ComputeUnits(ctx context.Context, calls []UnitCall) []UnitResult {
	b.levels.Add(1)
	out := make([]UnitResult, len(calls))
	for i, c := range calls {
		out[i].Bean, out[i].Err = b.Business.ComputeUnit(ctx, c.D, c.Inputs)
	}
	return out
}

// TestLevelBatchMatchesPerUnit checks that one level path gives the same
// state whether the business tier takes a level as one batch or as one
// call per unit: the same beans, computed in the same order.
func TestLevelBatchMatchesPerUnit(t *testing.T) {
	repo := descriptor.NewRepository()
	fanPage(repo, 8)
	perUnit := &recordingBusiness{}
	batchedInner := &recordingBusiness{}
	batched := &batchingBusiness{Business: batchedInner}
	unitSvc := &PageService{Repo: repo, Business: perUnit}
	batchSvc := &PageService{Repo: repo, Business: batched}

	req := map[string]Value{}
	one, err := unitSvc.ComputePage(context.Background(), "fan", req, nil)
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := batchSvc.ComputePage(context.Background(), "fan", req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one, lvl) {
		t.Fatalf("page state differs between per-unit and batched business:\n%+v\n%+v", one, lvl)
	}
	if !reflect.DeepEqual(perUnit.order, batchedInner.order) || len(perUnit.order) != 10 {
		t.Fatalf("compute order differs: per-unit %v, batched %v", perUnit.order, batchedInner.order)
	}
	if got := batched.levels.Load(); got != 3 {
		t.Fatalf("batched business saw %d calls for a three-level page, want 3", got)
	}
	// The sink saw every middle unit's propagated parameter.
	sink := lvl.Beans["sink"]
	for i := 0; i < 8; i++ {
		key := fmt.Sprintf("from-mid%02d", i)
		if at := FieldIndex(sink.Fields, key); at < 0 || sink.Nodes[0].Values[at].IsNull() {
			t.Fatalf("sink missing propagated param %q: %v", key, sink.Fields)
		}
	}
}

// failingBusiness errors on one designated unit.
type failingBusiness struct {
	countingBusiness
	failUnit string
}

func (f *failingBusiness) ComputeUnit(ctx context.Context, d *descriptor.Unit, inputs map[string]Value) (*UnitBean, error) {
	if d.ID == f.failUnit {
		return nil, fmt.Errorf("boom in %s", d.ID)
	}
	return f.countingBusiness.ComputeUnit(context.Background(), d, inputs)
}

// TestParallelPageComputeFirstError checks deterministic error selection:
// the reported error is the earliest failing unit in level order, on a
// per-unit and on a batching business alike.
func TestParallelPageComputeFirstError(t *testing.T) {
	repo := descriptor.NewRepository()
	fanPage(repo, 8)
	for _, b := range []Business{
		&failingBusiness{failUnit: "mid03"},
		&batchingBusiness{Business: &failingBusiness{failUnit: "mid03"}},
	} {
		svc := &PageService{Repo: repo, Business: b}
		_, err := svc.ComputePage(context.Background(), "fan", nil, nil)
		if err == nil {
			t.Fatalf("%T: expected error", b)
		}
		if got := err.Error(); got != "boom in mid03" {
			t.Fatalf("%T: error = %q, want the earliest failing unit's error", b, got)
		}
	}
}

// TestBeanKeyMatchesCacheKey pins the wire format: the pooled builder
// must produce byte-identical keys to cache.Key over formatted params,
// because integration tests and warm caches depend on it.
func TestBeanKeyMatchesCacheKey(t *testing.T) {
	inputs := map[string]Value{
		"oid":   int64(42),
		"name":  "vol",
		"ratio": 2.5,
		"live":  true,
		"when":  time.Date(2003, 1, 5, 12, 0, 0, 0, time.UTC),
		"gone":  nil,
	}
	strs := make(map[string]string, len(inputs))
	for k, v := range inputs {
		strs[k] = FormatParam(v)
	}
	want := cache.Key("issuesPapers", strs)
	if got := beanKey("issuesPapers", inputs); got != want {
		t.Fatalf("beanKey = %q, want %q", got, want)
	}
	if got := beanKey("solo", nil); got != "solo" {
		t.Fatalf("empty-input key = %q", got)
	}
}

// TestBeanKeyAllocations asserts the satellite's allocation reduction:
// the old implementation allocated an intermediate map plus one string
// per value; the pooled builder allocates only the final key (plus at
// most one pool miss).
func TestBeanKeyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	inputs := map[string]Value{"oid": int64(7), "parent": int64(3), "q": "keyword"}
	// Warm the pool.
	beanKey("unit", inputs)
	avg := testing.AllocsPerRun(200, func() {
		beanKey("unit", inputs)
	})
	if avg > 2 {
		t.Fatalf("beanKey allocates %.1f objects/op, want <= 2", avg)
	}
}

func BenchmarkBeanKey(b *testing.B) {
	inputs := map[string]Value{"oid": int64(7), "parent": int64(3), "q": "keyword"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		beanKey("issuesPapers", inputs)
	}
}
