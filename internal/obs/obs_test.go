package obs

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 0}, {1024, 0}, {1025, 1}, {2048, 1}, {2049, 2},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Huge values land in the overflow bucket.
	if got := bucketIndex(1 << 60); got != numBuckets-1 {
		t.Errorf("overflow bucket = %d, want %d", got, numBuckets-1)
	}
}

func TestHistogramQuantilesAndMinMax(t *testing.T) {
	var h Histogram
	// 100 observations: 1ms..100ms
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Min != time.Millisecond || s.Max != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	p50 := s.Quantile(0.5)
	if p50 < 20*time.Millisecond || p50 > 80*time.Millisecond {
		t.Errorf("p50 = %v, want roughly 50ms (log buckets are coarse)", p50)
	}
	p99 := s.Quantile(0.99)
	if p99 < 50*time.Millisecond || p99 > 100*time.Millisecond {
		t.Errorf("p99 = %v", p99)
	}
	if s.Quantile(1) != s.Max || s.Quantile(0) != s.Min {
		t.Errorf("quantile extremes not clamped to min/max")
	}
	if mean := s.Mean(); mean < 40*time.Millisecond || mean > 60*time.Millisecond {
		t.Errorf("mean = %v, want ~50.5ms", mean)
	}
}

func TestHistogramErrorRate(t *testing.T) {
	var h Histogram
	for i := 0; i < 10; i++ {
		h.ObserveErr(time.Millisecond, i < 3)
	}
	s := h.Snapshot()
	if s.Errs != 3 || s.Count != 10 {
		t.Fatalf("errs = %d of %d", s.Errs, s.Count)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(time.Duration(i+1) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestHistogramVecExposition(t *testing.T) {
	v := NewHistogramVec("webml_unit_seconds", "Unit service latency.", "unit")
	v.Observe("u1", 5*time.Millisecond)
	v.Observe("u2", 50*time.Millisecond)
	v.ObserveErr("u2", 10*time.Millisecond, true)

	reg := NewRegistry()
	reg.RegisterVec(v)
	reg.Gauge("webml_cache_hits", "Cache hits.", map[string]string{"cache": "bean"}, func() float64 { return 42 })

	var b strings.Builder
	reg.Write(&b)
	out := b.String()

	for _, want := range []string{
		"# HELP webml_unit_seconds Unit service latency.",
		"# TYPE webml_unit_seconds histogram",
		`webml_unit_seconds_count{unit="u1"} 1`,
		`webml_unit_seconds_count{unit="u2"} 2`,
		`le="+Inf"`,
		`webml_unit_seconds_quantile{q="0.5",unit="u1"}`,
		`webml_unit_seconds_quantile{q="0.99",unit="u2"}`,
		`webml_unit_seconds_errors_total{unit="u2"} 1`,
		`webml_cache_hits{cache="bean"} 42`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// HELP must appear exactly once per family even with many series.
	if n := strings.Count(out, "# HELP webml_unit_seconds Unit"); n != 1 {
		t.Errorf("HELP emitted %d times", n)
	}
}

func TestLabelEscaping(t *testing.T) {
	var b strings.Builder
	e := &Exposition{families: map[string]*family{}}
	e.Gauge("g", "h", map[string]string{"k": "a\"b\\c\nd"}, 1)
	e.writeTo(&b)
	if !strings.Contains(b.String(), `k="a\"b\\c\nd"`) {
		t.Errorf("bad escaping: %s", b.String())
	}
}

func TestTraceSpansAndContext(t *testing.T) {
	tr := NewTracer(8, time.Hour)
	ctx, trace := tr.Start(context.Background(), "page:Home")
	if trace == nil {
		t.Fatal("expected traced request")
	}
	ctx2, sp := StartSpan(ctx, "page.compute")
	sp.Label("page", "Home")
	leaf := Leaf(ctx2, "cache.get").Label("outcome", "miss")
	leaf.End()
	sp.End()
	tr.Finish(trace, 200)

	spans := trace.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	root, ok := byName["request"]
	if !ok {
		t.Fatal("no root span")
	}
	if byName["page.compute"].Parent != root.ID {
		t.Errorf("page.compute parent = %d, want root %d", byName["page.compute"].Parent, root.ID)
	}
	if byName["cache.get"].Parent != byName["page.compute"].ID {
		t.Errorf("cache.get parent = %d, want %d", byName["cache.get"].Parent, byName["page.compute"].ID)
	}
}

func TestNilSpanHandleSafe(t *testing.T) {
	ctx := context.Background() // no trace installed
	ctx2, sp := StartSpan(ctx, "x")
	if ctx2 != ctx || sp != nil {
		t.Fatal("untraced StartSpan must return ctx unchanged and nil handle")
	}
	sp.Label("a", "b").End()
	sp.EndErr(nil)
	if id := sp.ID(); id != 0 {
		t.Fatal("nil handle ID must be 0")
	}
	if tid, sid := sp.Wire(); tid != 0 || sid != 0 {
		t.Fatal("nil handle Wire must be zeros")
	}
	sp.ImportRemote(nil)
	Leaf(ctx, "y").End()
}

func TestRemoteTraceStitching(t *testing.T) {
	tr := NewTracer(8, time.Hour)
	ctx, trace := tr.Start(context.Background(), "page:Home")
	_, call := StartSpan(ctx, "ejb.call")
	traceID, spanID := call.Wire()

	// Far side: container reconstructs, records, exports.
	remote := NewRemoteTrace(traceID, spanID)
	rctx := ContextWithTrace(context.Background(), remote, spanID)
	rsp := Leaf(rctx, "container.invoke").Label("kind", "unit")
	rsp.End()
	call.ImportRemote(remote.Export())
	call.End()
	tr.Finish(trace, 200)

	spans := trace.Spans()
	var callSpan, remoteSpan *Span
	for i := range spans {
		switch spans[i].Name {
		case "ejb.call":
			callSpan = &spans[i]
		case "container.invoke":
			remoteSpan = &spans[i]
		}
	}
	if callSpan == nil || remoteSpan == nil {
		t.Fatalf("missing spans: %+v", spans)
	}
	if remoteSpan.Parent != callSpan.ID {
		t.Errorf("remote parent = %d, want caller span %d", remoteSpan.Parent, callSpan.ID)
	}
	// IDs from the two sides must not collide.
	seen := map[uint64]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span ID %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestTracerRingAndSlowCapture(t *testing.T) {
	tr := NewTracer(4, 10*time.Millisecond)
	for i := 0; i < 6; i++ {
		_, tt := tr.Start(context.Background(), "fast")
		tr.Finish(tt, 200)
	}
	_, slow := tr.Start(context.Background(), "slow")
	slow.Start = slow.Start.Add(-50 * time.Millisecond) // simulate elapsed time
	tr.Finish(slow, 200)

	recent := tr.Traces(0, false, 0)
	if len(recent) != 4 {
		t.Fatalf("recent ring holds %d, want 4 (capacity)", len(recent))
	}
	slowTraces := tr.Traces(0, true, 0)
	if len(slowTraces) != 1 || slowTraces[0].Name != "slow" || !slowTraces[0].Slow {
		t.Fatalf("slow ring: %+v", slowTraces)
	}
	started, slowN := tr.Stats()
	if started != 7 || slowN != 1 {
		t.Fatalf("stats = %d/%d", started, slowN)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(16, time.Hour)
	tr.SampleEvery = 4
	traced := 0
	for i := 0; i < 16; i++ {
		_, tt := tr.Start(context.Background(), "r")
		if tt != nil {
			traced++
			tr.Finish(tt, 200)
		}
	}
	if traced != 4 {
		t.Fatalf("traced %d of 16 with SampleEvery=4", traced)
	}
}

func TestTracesHandlerJSON(t *testing.T) {
	tr := NewTracer(8, time.Hour)
	ctx, trace := tr.Start(context.Background(), "page:Home")
	Leaf(ctx, "cache.get").Label("outcome", "hit").End()
	tr.Finish(trace, 200)

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?limit=5", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	var body struct {
		Started int64       `json:"started"`
		Traces  []TraceView `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if body.Started != 1 || len(body.Traces) != 1 {
		t.Fatalf("body = %+v", body)
	}
	tv := body.Traces[0]
	if tv.Name != "page:Home" || tv.Status != 200 || len(tv.Spans) != 2 {
		t.Fatalf("trace view = %+v", tv)
	}
	foundLabel := false
	for _, s := range tv.Spans {
		if s.Labels["outcome"] == "hit" {
			foundLabel = true
		}
	}
	if !foundLabel {
		t.Error("label lost in view")
	}

	// Bad query params are rejected.
	rec = httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?min=bogus", nil))
	if rec.Code != 400 {
		t.Fatalf("bad min: status %d", rec.Code)
	}
}

// TestHistSnapshotDelta: the delta of two snapshots of one histogram holds
// exactly the observations made between them, and a field that prev has
// ahead (a reset, or snapshots swapped) clamps to zero instead of
// wrapping.
func TestHistSnapshotDelta(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Microsecond)
	h.ObserveErr(3*time.Millisecond, true)
	before := h.Snapshot()
	h.Observe(5 * time.Millisecond)
	h.ObserveErr(6*time.Millisecond, true)
	after := h.Snapshot()

	d := after.Delta(before)
	if d.Count != 2 || d.Errs != 1 || d.Sum != 11*time.Millisecond {
		t.Fatalf("window: count %d errs %d sum %v, want 2, 1, 11ms", d.Count, d.Errs, d.Sum)
	}
	var inBuckets uint64
	for i, n := range d.Buckets {
		inBuckets += n
		if n > 0 && i != bucketIndex(uint64(5*time.Millisecond)) && i != bucketIndex(uint64(6*time.Millisecond)) {
			t.Errorf("bucket %d holds %d observations made before the window", i, n)
		}
	}
	if inBuckets != 2 {
		t.Errorf("window buckets hold %d observations, want 2", inBuckets)
	}
	if q := d.Quantile(0.5); q < 4*time.Millisecond {
		t.Errorf("window p50 %v falls below the window's observations", q)
	}

	back := before.Delta(after)
	if back.Count != 0 || back.Errs != 0 || back.Sum != 0 || back.Buckets != [numBuckets]uint64{} {
		t.Fatalf("prev ahead: %+v, want every count clamped to zero", back)
	}
}
