// Package obs is the model-driven observability subsystem: request
// tracing across tiers, per-stage latency histograms, and a hand-rolled
// Prometheus-text-format exposition.
//
// The design mirrors the paper's central argument about caching: just as
// WebRatio derives cache invalidation automatically from the conceptual
// model (each unit's read tags, each operation's write tags), the runtime
// derives observability labels from the same model objects. Every span
// and every histogram series is keyed by the page, unit, entity or
// operation it serves — the developer never instruments anything by
// hand, the model already names every stage of the request.
//
// Tracing is propagated through context.Context inside a process and
// through two wire fields (trace ID + parent span ID) across the
// EJB tier boundary; the container ships its spans back in the response,
// so the servlet tier stitches one trace covering edge, controller, page
// workers, caches and remote containers. Finished traces land in a
// fixed-size ring buffer queryable at /debug/traces, with slow traces
// captured separately as exemplars.
package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one completed stage of a request. Timestamps are absolute
// UnixNano so container-side spans (same machine or NTP-close) stitch
// into the caller's timeline; Labels is a flat k,v pair list to keep the
// record cheap to build on the hot path.
type Span struct {
	ID     uint64
	Parent uint64
	Name   string
	Labels []string // k1, v1, k2, v2, ...
	Start  int64    // UnixNano
	End    int64    // UnixNano
	Err    string
}

// Trace collects the spans of one request. Span appends take the trace
// mutex, but a trace is private to its request, so the only contention
// is between that request's own page workers — never across requests.
type Trace struct {
	ID     uint64
	Name   string
	Start  time.Time
	End    time.Time
	Status int

	// base offsets span IDs: 0 on the requesting tier; on a container,
	// the calling span's ID shifted high so IDs from both sides of the
	// wire can never collide within one stitched trace.
	base   uint64
	nextID atomic.Uint64
	rootID uint64

	mu    sync.Mutex
	spans []Span
}

func (t *Trace) newSpanID() uint64 { return t.base + t.nextID.Add(1) }

func (t *Trace) append(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Export snapshots the trace's completed spans — the container side of
// the wire protocol ships this back in the invocation response.
func (t *Trace) Export() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Import merges spans produced on the far side of a tier boundary
// (already offset by NewRemoteTrace, so IDs cannot collide).
func (t *Trace) Import(spans []Span) {
	if len(spans) == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// Spans returns a snapshot of the spans recorded so far.
func (t *Trace) Spans() []Span { return t.Export() }

// NewRemoteTrace creates the container-side collector of a propagated
// trace: same trace ID, span IDs offset by the calling span so the two
// sides of the wire allocate from disjoint ranges.
func NewRemoteTrace(traceID, callerSpan uint64) *Trace {
	return &Trace{ID: traceID, Start: time.Now(), base: callerSpan << 20}
}

// active is the context payload: the trace plus the span that new child
// spans parent to.
type active struct {
	t      *Trace
	parent uint64
}

type ctxKey struct{}

// ContextWithTrace installs a trace (and the parent span ID for children)
// into a context — used at request start and on the container side of
// the wire.
func ContextWithTrace(ctx context.Context, t *Trace, parent uint64) context.Context {
	return context.WithValue(ctx, ctxKey{}, active{t: t, parent: parent})
}

// FromContext returns the context's trace and current parent span ID,
// or (nil, 0) when the request is not traced. The nil fast path is a
// single map-free Value lookup, so untraced requests pay nothing else.
func FromContext(ctx context.Context) (*Trace, uint64) {
	if a, ok := ctx.Value(ctxKey{}).(active); ok {
		return a.t, a.parent
	}
	return nil, 0
}

// SpanHandle is an open span. A nil handle (untraced request) is valid:
// every method is a no-op, so call sites need no enabled-checks.
type SpanHandle struct {
	t      *Trace
	id     uint64
	parent uint64
	name   string
	labels []string
	start  int64
}

// StartSpan opens a span that will have children: the returned context
// carries it as the parent for spans opened below. When the request is
// untraced the context is returned unchanged and the handle is nil.
func StartSpan(ctx context.Context, name string) (context.Context, *SpanHandle) {
	t, parent := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := &SpanHandle{t: t, id: t.newSpanID(), parent: parent, name: name, start: time.Now().UnixNano()}
	return context.WithValue(ctx, ctxKey{}, active{t: t, parent: sp.id}), sp
}

// Leaf opens a childless span without deriving a new context — the
// cheap form for hot-path stages (a cache probe, one remote call).
func Leaf(ctx context.Context, name string) *SpanHandle {
	t, parent := FromContext(ctx)
	if t == nil {
		return nil
	}
	return &SpanHandle{t: t, id: t.newSpanID(), parent: parent, name: name, start: time.Now().UnixNano()}
}

// Label attaches one model-derived label (page, unit, entity, addr...).
// Chainable and nil-safe.
func (s *SpanHandle) Label(k, v string) *SpanHandle {
	if s != nil {
		s.labels = append(s.labels, k, v)
	}
	return s
}

// ID returns the span's ID (0 for a nil handle).
func (s *SpanHandle) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// Wire returns the trace ID + span ID pair to propagate across a tier
// boundary (zeros for a nil handle = untraced).
func (s *SpanHandle) Wire() (traceID, spanID uint64) {
	if s == nil {
		return 0, 0
	}
	return s.t.ID, s.id
}

// ImportRemote stitches spans returned by the far side of a remote call
// into this span's trace.
func (s *SpanHandle) ImportRemote(spans []Span) {
	if s != nil {
		s.t.Import(spans)
	}
}

// TraceID returns the ID of the context's active trace, or 0 when the
// request is untraced — the join key between externally captured
// records (the rdb flight recorder) and /debug/traces.
func TraceID(ctx context.Context) uint64 {
	t, _ := FromContext(ctx)
	if t == nil {
		return 0
	}
	return t.ID
}

// RecordSpan appends an already-completed span with explicit start and
// end times to the context's trace — for stages measured before the
// trace existed (admission queue wait happens before the request span
// opens) or measured by code that cannot hold a SpanHandle — labelled
// k=v. A no-op on untraced contexts, which allocates nothing: the label
// list is made only for a trace.
func RecordSpan(ctx context.Context, name string, start, end time.Time, k, v string) {
	t, parent := FromContext(ctx)
	if t == nil {
		return
	}
	t.append(Span{
		ID:     t.newSpanID(),
		Parent: parent,
		Name:   name,
		Labels: []string{k, v},
		Start:  start.UnixNano(),
		End:    end.UnixNano(),
	})
}

// End completes the span successfully.
func (s *SpanHandle) End() { s.EndErr(nil) }

// EndErr completes the span, recording the error (nil = success).
func (s *SpanHandle) EndErr(err error) {
	if s == nil {
		return
	}
	sp := Span{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Labels: s.labels,
		Start:  s.start,
		End:    time.Now().UnixNano(),
	}
	if err != nil {
		sp.Err = err.Error()
	}
	s.t.append(sp)
}
