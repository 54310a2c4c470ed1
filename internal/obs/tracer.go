package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSlowThreshold marks traces as slow exemplars when no explicit
// threshold is configured.
const DefaultSlowThreshold = 250 * time.Millisecond

// Tracer allocates request traces and retains finished ones in two
// fixed-size ring buffers: every recent trace, plus a separate ring of
// slow exemplars that fast traffic cannot flush out — the auto-captured
// evidence for "where did this request's budget go".
type Tracer struct {
	// Slow is the exemplar threshold: traces at or above it are also
	// kept in the slow ring (<=0 selects DefaultSlowThreshold).
	Slow time.Duration
	// SampleEvery traces one request in N (<=1 traces all). Histograms
	// are unaffected — only span capture is sampled.
	SampleEvery int

	ids     atomic.Uint64
	reqs    atomic.Uint64
	started atomic.Int64
	slowN   atomic.Int64

	mu     sync.Mutex
	recent []*Trace
	pos    int
	slow   []*Trace
	slowP  int
}

// NewTracer returns a tracer retaining up to capacity recent traces
// (<=0 selects 256) with the given slow-exemplar threshold.
func NewTracer(capacity int, slow time.Duration) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	if slow <= 0 {
		slow = DefaultSlowThreshold
	}
	slowCap := capacity / 4
	if slowCap < 16 {
		slowCap = 16
	}
	return &Tracer{
		Slow:   slow,
		recent: make([]*Trace, 0, capacity),
		slow:   make([]*Trace, 0, slowCap),
	}
}

// Start begins a trace for one request named after its action and
// installs it into ctx with the root span as parent. A sampled-out
// request returns (ctx, nil) — callers skip Finish on nil.
func (tr *Tracer) Start(ctx context.Context, name string) (context.Context, *Trace) {
	if n := tr.SampleEvery; n > 1 {
		if tr.reqs.Add(1)%uint64(n) != 0 {
			return ctx, nil
		}
	}
	t := &Trace{ID: tr.ids.Add(1), Name: name, Start: time.Now()}
	t.rootID = t.newSpanID()
	tr.started.Add(1)
	return ContextWithTrace(ctx, t, t.rootID), t
}

// Finish completes a trace: the root span is materialized over the full
// request duration and the trace is retained in the recent ring (and the
// slow ring when it crossed the threshold).
func (tr *Tracer) Finish(t *Trace, status int) {
	if t == nil {
		return
	}
	t.End = time.Now()
	t.Status = status
	t.append(Span{
		ID:    t.rootID,
		Name:  "request",
		Start: t.Start.UnixNano(),
		End:   t.End.UnixNano(),
	})
	slow := t.End.Sub(t.Start) >= tr.slowThreshold()
	if slow {
		tr.slowN.Add(1)
	}
	tr.mu.Lock()
	tr.recent, tr.pos = ringPush(tr.recent, tr.pos, cap(tr.recent), t)
	if slow {
		tr.slow, tr.slowP = ringPush(tr.slow, tr.slowP, cap(tr.slow), t)
	}
	tr.mu.Unlock()
}

func (tr *Tracer) slowThreshold() time.Duration {
	if tr.Slow > 0 {
		return tr.Slow
	}
	return DefaultSlowThreshold
}

// ringPush appends into a fixed-capacity ring, overwriting the oldest
// entry once full.
func ringPush(ring []*Trace, pos, capacity int, t *Trace) ([]*Trace, int) {
	if len(ring) < capacity {
		return append(ring, t), pos
	}
	ring[pos] = t
	return ring, (pos + 1) % capacity
}

// Stats reports how many traces were started and how many crossed the
// slow threshold.
func (tr *Tracer) Stats() (started, slow int64) {
	return tr.started.Load(), tr.slowN.Load()
}

// SpanView is the JSON form of one span at /debug/traces: times become
// offsets from the trace start, labels become an object.
type SpanView struct {
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Labels  map[string]string `json:"labels,omitempty"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Err     string            `json:"err,omitempty"`
}

// TraceView is the JSON form of one finished trace.
type TraceView struct {
	ID     string     `json:"id"`
	Name   string     `json:"name"`
	Start  time.Time  `json:"start"`
	DurMS  float64    `json:"dur_ms"`
	Status int        `json:"status,omitempty"`
	Slow   bool       `json:"slow,omitempty"`
	Spans  []SpanView `json:"spans"`
}

func (tr *Tracer) view(t *Trace) TraceView {
	base := t.Start.UnixNano()
	spans := t.Export()
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].ID < spans[j].ID
	})
	v := TraceView{
		ID:     fmt.Sprintf("%016x", t.ID),
		Name:   t.Name,
		Start:  t.Start,
		DurMS:  float64(t.End.Sub(t.Start).Microseconds()) / 1000,
		Status: t.Status,
		Slow:   t.End.Sub(t.Start) >= tr.slowThreshold(),
		Spans:  make([]SpanView, 0, len(spans)),
	}
	for _, s := range spans {
		sv := SpanView{
			ID:      s.ID,
			Parent:  s.Parent,
			Name:    s.Name,
			StartUS: (s.Start - base) / 1000,
			DurUS:   (s.End - s.Start) / 1000,
			Err:     s.Err,
		}
		if len(s.Labels) >= 2 {
			sv.Labels = make(map[string]string, len(s.Labels)/2)
			for i := 0; i+1 < len(s.Labels); i += 2 {
				sv.Labels[s.Labels[i]] = s.Labels[i+1]
			}
		}
		v.Spans = append(v.Spans, sv)
	}
	return v
}

// Traces returns finished traces, newest first. min filters out traces
// shorter than it; slowOnly restricts to the slow-exemplar ring; limit
// bounds the result (<=0 selects 32).
func (tr *Tracer) Traces(min time.Duration, slowOnly bool, limit int) []TraceView {
	if limit <= 0 {
		limit = 32
	}
	tr.mu.Lock()
	var src []*Trace
	if slowOnly {
		src = append(src, tr.slow...)
	} else {
		src = append(src, tr.recent...)
	}
	tr.mu.Unlock()
	sort.Slice(src, func(i, j int) bool { return src[i].End.After(src[j].End) })
	out := make([]TraceView, 0, limit)
	for _, t := range src {
		if t.End.Sub(t.Start) < min {
			continue
		}
		out = append(out, tr.view(t))
		if len(out) >= limit {
			break
		}
	}
	return out
}

// Handler serves the trace ring as JSON:
//
//	GET /debug/traces            recent traces (newest first)
//	GET /debug/traces?slow=1     slow exemplars only
//	GET /debug/traces?min=100ms  traces at least this long
//	GET /debug/traces?limit=10   bound the count
func (tr *Tracer) Handler() http.Handler {
	const usage = "/debug/traces?min=<duration>&slow=<0|1>&limit=<n>"
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		min, err := ParseDebugDuration("min", q.Get("min"))
		if err != nil {
			DebugParamError(w, err, usage)
			return
		}
		limit, err := ParseDebugLimit("limit", q.Get("limit"))
		if err != nil {
			DebugParamError(w, err, usage)
			return
		}
		slowOnly, err := ParseDebugBool("slow", q.Get("slow"))
		if err != nil {
			DebugParamError(w, err, usage)
			return
		}
		started, slowN := tr.Stats()
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(map[string]interface{}{ //nolint:errcheck // best-effort debug endpoint
			"started":       started,
			"slow":          slowN,
			"slowThreshold": tr.slowThreshold().String(),
			"traces":        tr.Traces(min, slowOnly, limit),
		})
	})
}

// StatusWriter records the status a handler answers with, for a trace's
// Finish or a request metric. Code starts at the status a handler that
// never calls WriteHeader answers with, http.StatusOK.
type StatusWriter struct {
	http.ResponseWriter
	Code int
}

// WriteHeader records the status and passes it on.
func (w *StatusWriter) WriteHeader(code int) {
	w.Code = code
	w.ResponseWriter.WriteHeader(code)
}
