package rdb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestQueryContextMatchesQuery(t *testing.T) {
	db := planDB(t)
	sql := `SELECT name FROM product WHERE family = 'fam1' AND price = 7`
	want, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	// Recorder on forces the instrumented path even without hooks.
	db.EnableQueryRecorder(8, 0)
	got, err := db.QueryContext(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
		t.Fatalf("QueryContext %v != Query %v", got.Data, want.Data)
	}
	// The three SELECT entry points refuse alike, and a refused query
	// leaves no record, even with hooks on and the recorder at 0.
	log := &spanLog{}
	db.SetTraceHooks(log.hooks(1))
	db.EnableQueryRecorder(8, 0) // a fresh, empty ring
	for _, c := range []struct {
		sql  string
		args []Value
		want string
	}{
		{`SELECT name FROM WHERE oid = 1`, nil, "syntax error"},
		{`UPDATE product SET price = 1 WHERE oid = 1`, nil, "rdb: Query requires a SELECT statement, got *rdb.UpdateStmt"},
		{`SELECT name FROM product WHERE oid = ?`, []Value{int64(1), int64(2)}, "rdb: statement needs 1 parameters, got 2"},
	} {
		_, qerr := db.Query(c.sql, c.args...)
		_, cerr := db.QueryContext(context.Background(), c.sql, c.args...)
		_, aerr := db.ExplainAnalyze(c.sql, c.args...)
		if qerr == nil || !strings.Contains(qerr.Error(), c.want) {
			t.Fatalf("Query(%q): err = %v, want %q", c.sql, qerr, c.want)
		}
		if cerr == nil || cerr.Error() != qerr.Error() || aerr == nil || aerr.Error() != qerr.Error() {
			t.Fatalf("%q: Query %v, QueryContext %v, ExplainAnalyze %v: want one error", c.sql, qerr, cerr, aerr)
		}
	}
	if recs := db.QueryRecords(0, 0); len(recs) != 0 {
		t.Fatalf("refused queries were recorded: %+v", recs)
	}
	if n := len(log.names()); n != 3 {
		t.Fatalf("refused queries opened %d spans, want 3 (one per QueryContext)", n)
	}
}

func TestQueryRecorderCaptures(t *testing.T) {
	db := planDB(t)
	db.EnableQueryRecorder(8, 0) // min 0: capture everything
	ctx := context.Background()
	if _, err := db.QueryContext(ctx, `SELECT name FROM product WHERE oid = ?`, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryContext(ctx, `SELECT code FROM product WHERE price > 20`); err != nil {
		t.Fatal(err)
	}
	recs := db.QueryRecords(0, 0)
	if len(recs) != 2 {
		t.Fatalf("captured %d records, want 2", len(recs))
	}
	// Newest first.
	if !strings.Contains(recs[0].SQL, "price > 20") {
		t.Fatalf("records not newest-first: %q", recs[0].SQL)
	}
	r := recs[1]
	if len(r.Params) != 1 || fmt.Sprint(r.Params[0]) != "3" {
		t.Fatalf("bound params not captured: %v", r.Params)
	}
	if r.Rows != 1 {
		t.Fatalf("row count not captured: %d", r.Rows)
	}
	if !strings.Contains(r.Plan, "BY PRIMARY KEY ON oid") || !strings.Contains(r.Plan, "actual 1 rows") {
		t.Fatalf("analyzed plan not captured: %q", r.Plan)
	}
	if !strings.Contains(r.Plan, "\nPLAN: ") {
		t.Fatalf("plan provenance missing: %q", r.Plan)
	}
	if got := db.Stats().QueriesRecorded; got != 2 {
		t.Fatalf("QueriesRecorded = %d, want 2", got)
	}
}

func TestQueryRecorderThreshold(t *testing.T) {
	db := planDB(t)
	db.EnableQueryRecorder(8, time.Hour) // nothing is ever that slow
	if _, err := db.QueryContext(context.Background(), `SELECT name FROM product WHERE oid = 1`); err != nil {
		t.Fatal(err)
	}
	if recs := db.QueryRecords(0, 0); len(recs) != 0 {
		t.Fatalf("fast query captured despite threshold: %d records", len(recs))
	}
	// The min filter on read also applies.
	db.EnableQueryRecorder(8, 0)
	if _, err := db.QueryContext(context.Background(), `SELECT name FROM product WHERE oid = 1`); err != nil {
		t.Fatal(err)
	}
	if recs := db.QueryRecords(time.Hour, 0); len(recs) != 0 {
		t.Fatalf("read-side min filter not applied: %d records", len(recs))
	}
}

func TestQueryRecorderRingWraps(t *testing.T) {
	db := planDB(t)
	db.EnableQueryRecorder(2, 0)
	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		if _, err := db.QueryContext(ctx, fmt.Sprintf(`SELECT name FROM product WHERE oid = %d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	recs := db.QueryRecords(0, 0)
	if len(recs) != 2 {
		t.Fatalf("ring holds %d records, want 2", len(recs))
	}
	if !strings.Contains(recs[0].SQL, "oid = 3") || !strings.Contains(recs[1].SQL, "oid = 2") {
		t.Fatalf("ring kept wrong entries: %q, %q", recs[0].SQL, recs[1].SQL)
	}
}

// spanLog is a test TraceHooks sink: it records every span the data
// tier opens, regardless of context.
type spanLog struct {
	mu    sync.Mutex
	spans []struct {
		name   string
		err    error
		labels []string
	}
}

func (l *spanLog) hooks(traceID uint64) *TraceHooks {
	return &TraceHooks{
		Span: func(_ context.Context, name string) SpanFinish {
			return func(err error, labels ...string) {
				l.mu.Lock()
				l.spans = append(l.spans, struct {
					name   string
					err    error
					labels []string
				}{name, err, labels})
				l.mu.Unlock()
			}
		},
		TraceID: func(context.Context) uint64 { return traceID },
	}
}

func (l *spanLog) label(i int, key string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	ls := l.spans[i].labels
	for j := 0; j+1 < len(ls); j += 2 {
		if ls[j] == key {
			return ls[j+1]
		}
	}
	return ""
}

func (l *spanLog) names() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(l.spans))
	for i, s := range l.spans {
		out[i] = s.name
	}
	return out
}

func TestTraceHooksQuerySpan(t *testing.T) {
	db := planDB(t)
	log := &spanLog{}
	db.SetTraceHooks(log.hooks(42))
	ctx := context.Background()
	sql := `SELECT name FROM product WHERE oid = 3`
	if _, err := db.QueryContext(ctx, sql); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryContext(ctx, sql); err != nil {
		t.Fatal(err)
	}
	names := log.names()
	if len(names) != 2 || names[0] != "rdb.query" {
		t.Fatalf("spans = %v, want two rdb.query", names)
	}
	if got := log.label(0, "access"); got != "pk" {
		t.Fatalf("access label = %q, want pk", got)
	}
	if got := log.label(0, "rows"); got != "1" {
		t.Fatalf("rows label = %q, want 1", got)
	}
	if log.label(0, "plan_cache") != "miss" || log.label(1, "plan_cache") != "hit" {
		t.Fatalf("plan_cache labels = %q, %q, want miss then hit",
			log.label(0, "plan_cache"), log.label(1, "plan_cache"))
	}
	if log.label(0, "sql") == "" {
		t.Fatal("sql label missing")
	}
}

func TestTraceHooksExecAndCommitSpans(t *testing.T) {
	db := planDB(t)
	log := &spanLog{}
	db.SetTraceHooks(log.hooks(7))
	ctx := context.Background()
	tx := db.Begin()
	if _, err := tx.Exec(`INSERT INTO family (name) VALUES ('tx-traced')`); err != nil {
		t.Fatal(err)
	}
	if err := tx.CommitContext(ctx); err != nil {
		t.Fatal(err)
	}
	if names := log.names(); len(names) == 0 || names[0] != "rdb.commit" {
		t.Fatalf("spans = %v, want rdb.commit first", names)
	}
	if got := log.label(0, "ops"); got != "1" {
		t.Fatalf("ops label = %q, want 1", got)
	}
	if log.label(0, "wal_append") == "" {
		t.Fatal("wal_append label missing")
	}
}

func TestQueryRecorderStampsTraceID(t *testing.T) {
	db := planDB(t)
	log := &spanLog{}
	db.SetTraceHooks(log.hooks(0xabcd))
	db.EnableQueryRecorder(4, 0)
	if _, err := db.QueryContext(context.Background(), `SELECT name FROM product WHERE oid = 2`); err != nil {
		t.Fatal(err)
	}
	recs := db.QueryRecords(0, 0)
	if len(recs) != 1 || recs[0].TraceID != 0xabcd {
		t.Fatalf("trace ID not stamped: %+v", recs)
	}
}
