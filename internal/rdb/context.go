package rdb

import (
	"context"
	"math"
	"strconv"
	"time"

	"webmlgo/internal/cell"
)

// This file is the data tier's zero-dependency tracing seam. The rdb
// package knows nothing about the obs package; the application wires a
// TraceHooks whose Span function bridges into whatever tracing system
// owns the request context. Context-taking variants of Query/Exec/
// Commit consult the hooks once (one atomic load) and fall back to the
// plain hot path when no hook or recorder is active, so the disabled
// path stays within noise of Query itself.

// SpanFinish completes a span opened by TraceHooks.Span, attaching
// flat key/value label pairs and the outcome error (nil = success).
type SpanFinish func(err error, labels ...string)

// TraceHooks bridges data-tier execution into an external tracer.
type TraceHooks struct {
	// Span opens a span named name under ctx's active trace and returns
	// its completion function — or nil when ctx carries no trace, which
	// tells the DB to skip instrumentation entirely for this call.
	Span func(ctx context.Context, name string) SpanFinish
	// TraceID reports ctx's owning trace ID (0 when untraced); the
	// flight recorder stamps it on captured queries so /debug/queries
	// rows join against /debug/traces.
	TraceID func(ctx context.Context) uint64
}

// SetTraceHooks installs (or, with nil, removes) the data-tier trace
// hooks. Safe to call concurrently with queries.
func (db *DB) SetTraceHooks(h *TraceHooks) {
	db.hooks.Store(h)
}

// maxSQLLabel bounds the SQL text copied onto span labels.
const maxSQLLabel = 200

func truncateSQL(sql string) string {
	if len(sql) <= maxSQLLabel {
		return sql
	}
	return sql[:maxSQLLabel] + "…"
}

// QueryContext is Query plus data-tier observability: when trace hooks
// are installed and ctx carries a trace, the execution is wrapped in an
// "rdb.query" span labeled with the SQL, the chosen access path, the
// plan-cache outcome and the row count; when the flight recorder is
// enabled, executions at or above its threshold are captured with
// their analyzed plan. With neither active it delegates to Query.
func (db *DB) QueryContext(ctx context.Context, sql string, args ...Value) (*Rows, error) {
	h := db.hooks.Load()
	rec := db.recorder.Load()
	var fin SpanFinish
	if h != nil && h.Span != nil {
		fin = h.Span(ctx, "rdb.query")
	}
	if fin == nil && rec == nil {
		return db.Query(sql, args...)
	}
	p, hit, e, err := db.planSelect(sql, args)
	if err != nil {
		if fin != nil {
			fin(err)
		}
		return nil, err
	}
	threshold := time.Duration(math.MaxInt64) // no recorder: never render
	if rec != nil {
		threshold = rec.min
	}
	rows, elapsed, planText, err := db.analyze(p, hit, e, threshold)
	access := p.access.pathLabel()
	db.mu.RUnlock()
	var nrows int64
	if rows != nil {
		nrows = int64(rows.Len())
	}
	if fin != nil {
		cache := "miss"
		if hit {
			cache = "hit"
		}
		fin(err,
			"sql", truncateSQL(sql),
			"access", access,
			"plan_cache", cache,
			"rows", strconv.FormatInt(nrows, 10))
	}
	if planText != "" {
		var traceID uint64
		if h != nil && h.TraceID != nil {
			traceID = h.TraceID(ctx)
		}
		rec.record(QueryRecord{
			At:       time.Now(),
			SQL:      sql,
			Params:   boxAll(e.c.args),
			TraceID:  traceID,
			CacheHit: hit,
			Rows:     nrows,
			Elapsed:  elapsed,
			Plan:     planText,
		})
		db.stats.queriesRecorded.Add(1)
	}
	return rows, err
}

// boxAll boxes cells for a record that leaves the engine.
func boxAll(cs []cell.Cell) []Value {
	out := make([]Value, len(cs))
	for i, c := range cs {
		out[i] = c.Value()
	}
	return out
}
