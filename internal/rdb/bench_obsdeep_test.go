package rdb

import (
	"context"
	"testing"
)

// Observability-overhead benchmarks: the acceptance bar is that with
// tracing merely *available* (hooks installed but the request
// untraced, recorder off) the hot path stays within noise of the
// uninstrumented Query, and full analysis stays affordable.

// BenchmarkObsQueryPlain is the PR-6 baseline: db.Query, no
// observability anywhere.
func BenchmarkObsQueryPlain(b *testing.B) {
	db := benchDB(b, 100, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(`SELECT name FROM item WHERE oid = ?`, int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsQueryContextDisabled measures the disabled path: no
// hooks, no recorder — one atomic load each, then straight delegation
// to Query.
func BenchmarkObsQueryContextDisabled(b *testing.B) {
	db := benchDB(b, 100, true)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryContext(ctx, `SELECT name FROM item WHERE oid = ?`, int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsQueryContextUntraced measures hooks installed but the
// context untraced (the sampled-out production case): Span returns
// nil, so the DB skips instrumentation entirely.
func BenchmarkObsQueryContextUntraced(b *testing.B) {
	db := benchDB(b, 100, true)
	db.SetTraceHooks(&TraceHooks{
		Span:    func(context.Context, string) SpanFinish { return nil },
		TraceID: func(context.Context) uint64 { return 0 },
	})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryContext(ctx, `SELECT name FROM item WHERE oid = ?`, int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsQueryContextAnalyzed measures full analysis: recorder on
// at threshold zero, so every execution collects operator counters,
// renders its analyzed plan and pushes a record into the ring.
func BenchmarkObsQueryContextAnalyzed(b *testing.B) {
	db := benchDB(b, 100, true)
	db.EnableQueryRecorder(128, 0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.QueryContext(ctx, `SELECT name FROM item WHERE oid = ?`, int64(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsExplainAnalyze measures the EXPLAIN ANALYZE entry point
// itself (execute + render).
func BenchmarkObsExplainAnalyze(b *testing.B) {
	db := benchDB(b, 100, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.ExplainAnalyze(`SELECT name FROM item WHERE grp = ?`, int64(7)); err != nil {
			b.Fatal(err)
		}
	}
}
