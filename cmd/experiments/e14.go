package main

import (
	"context"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"webmlgo"
	"webmlgo/internal/fault"
	"webmlgo/internal/rdb"
)

// e14 checks the deep data-tier observability work on three gates:
//
//  1. hot-path overhead — QueryContext with observability merely
//     *available* but off must cost what plain db.Query costs, gated
//     as the count it is: allocations per call must be equal. Timings
//     (off, and hooks-installed-but-untraced) are printed beside it,
//     ungated: on two vCPUs they wander several percent either way;
//  2. end-to-end attribution — one chaos-slowed traced request must be
//     diagnosable from a single /debug/traces fetch (request ->
//     rdb.query span with SQL + access path) joined by trace ID to its
//     analyzed plan in /debug/queries, operator actuals included;
//  3. EXPLAIN ANALYZE fidelity — the analyzed plan's actual row counts
//     must match what Query returns on the four acceptance shapes
//     (point lookup, composite range, indexed join, ORDER BY
//     elimination).
func e14() {
	e14Overhead()
	e14Attribution()
	e14Analyze()
}

// e14Overhead gates on allocations per point lookup, then times three
// identically-seeded engines interleaved, best round kept each (same
// discipline as E12's read comparison), for the printed comparison.
func e14Overhead() {
	plain, disabled, untraced := rdb.Open(), rdb.Open(), rdb.Open()
	for _, db := range []*rdb.DB{plain, disabled, untraced} {
		e12Seed(db)
	}
	// Hooks installed but the context untraced: Span answers nil, the
	// sampled-out production case.
	untraced.SetTraceHooks(&rdb.TraceHooks{
		Span:    func(context.Context, string) rdb.SpanFinish { return nil },
		TraceID: func(context.Context) uint64 { return 0 },
	})
	ctx := context.Background()
	// Fine-grained interleaving: many short rounds, best kept per
	// engine, so GC pauses and scheduler hiccups land on no one engine.
	const iters, rounds = 4000, 12
	lookup := func(db *rdb.DB, viaCtx bool) func() {
		i := 0
		return func() {
			i++
			oid := int64(i%1000 + 1)
			var err error
			if viaCtx {
				_, err = db.QueryContext(ctx, `SELECT name FROM item WHERE oid = ?`, oid)
			} else {
				_, err = db.Query(`SELECT name FROM item WHERE oid = ?`, oid)
			}
			must(err)
		}
	}
	best := [3]time.Duration{1 << 62, 1 << 62, 1 << 62}
	fns := []func(){lookup(plain, false), lookup(disabled, true), lookup(untraced, true)}
	for _, fn := range fns { // warm plan caches before counting or timing
		timeOp(200, fn)
	}
	plainAllocs, offAllocs := testing.AllocsPerRun(1000, fns[0]), testing.AllocsPerRun(1000, fns[1])
	for round := 0; round < rounds; round++ {
		for i, fn := range fns {
			if t := timeOp(iters, fn); t < best[i] {
				best[i] = t
			}
		}
	}
	pct := func(i int) float64 {
		return 100 * (float64(best[i]) - float64(best[0])) / float64(best[0])
	}
	fmt.Printf("Hot-path cost of having observability available (%d point lookups x %d interleaved rounds, best kept):\n", iters, rounds)
	fmt.Printf("  db.Query (PR-6 baseline):            %10v per query, %.0f allocs\n", best[0], plainAllocs)
	fmt.Printf("  QueryContext, observability off:     %10v per query, %.0f allocs  (%+.1f%% time, ungated; gate: equal allocs)\n", best[1], offAllocs, pct(1))
	fmt.Printf("  QueryContext, hooks on, untraced:    %10v per query  (%+.1f%%; sampled-out request)\n", best[2], pct(2))
	check("QueryContext with observability off allocates what db.Query does", offAllocs == plainAllocs)
}

// e14 JSON views of the two debug endpoints — the same bytes an
// operator's curl would see.
type e14Traces struct {
	Traces []struct {
		ID    string  `json:"id"`
		Name  string  `json:"name"`
		DurMS float64 `json:"dur_ms"`
		Slow  bool    `json:"slow"`
		Spans []struct {
			ID     uint64            `json:"id"`
			Parent uint64            `json:"parent"`
			Name   string            `json:"name"`
			DurUS  int64             `json:"dur_us"`
			Labels map[string]string `json:"labels"`
		} `json:"spans"`
	} `json:"traces"`
}

type e14Queries struct {
	Queries []struct {
		TraceID    string  `json:"trace_id"`
		SQL        string  `json:"sql"`
		PlanCached bool    `json:"plan_cached"`
		Rows       int64   `json:"rows"`
		ElapsedMS  float64 `json:"elapsed_ms"`
		Plan       string  `json:"plan"`
	} `json:"queries"`
}

// e14Attribution slows the business tier with injected chaos, traces
// one request, and walks the whole story from two curls: the slow
// trace names the query (SQL, access path, plan-cache outcome), and
// /debug/queries joins on the trace ID to the analyzed plan with
// operator actuals.
func e14Attribution() {
	app := fixtureApp(
		webmlgo.WithObservability(10*time.Millisecond, time.Nanosecond), // every query recorded
		webmlgo.WithFaults(fault.Schedule{Seed: 14, LatencyProb: 1.0, Latency: 25 * time.Millisecond}))
	h := app.Handler()
	start := time.Now()
	code, _ := get(h, "/page/volumePage?volume=1")
	lat := time.Since(start)
	fmt.Printf("\nAttribution drill: every business call slowed 25ms by injected chaos; one request, two curls.\n")
	fmt.Printf("  request answered %d in %v\n", code, lat.Round(time.Millisecond))

	// Curl 1: /debug/traces — the slow exemplar, down to the data tier.
	code, body := get(app.TracesHandler(), "/debug/traces?slow=1")
	if !check("/debug/traces answers 200", code == 200) {
		return
	}
	var traces e14Traces
	must(json.Unmarshal([]byte(body), &traces))
	if !check("a slow trace captured", len(traces.Traces) > 0) {
		return
	}
	tr := traces.Traces[0]
	fmt.Printf("  slow trace %s (%s, %.1fms):\n", tr.ID, tr.Name, tr.DurMS)
	var rdbSpans int
	var rdbUS int64
	var sampleSQL string
	stitched := true
	ids := map[uint64]bool{}
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	for _, sp := range tr.Spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			stitched = false
		}
		if !strings.HasPrefix(sp.Name, "rdb.") {
			continue
		}
		rdbSpans++
		rdbUS += sp.DurUS
		if sp.Name == "rdb.query" && sampleSQL == "" && sp.Labels["sql"] != "" && sp.Labels["access"] != "" {
			sampleSQL = sp.Labels["sql"]
			fmt.Printf("    rdb.query %6.1fms  access=%s plan_cache=%s sql=%q\n",
				float64(sp.DurUS)/1000, sp.Labels["access"], sp.Labels["plan_cache"], sp.Labels["sql"])
		}
	}
	fmt.Printf("    data tier: %d rdb spans, %.1fms of %.1fms total\n", rdbSpans, float64(rdbUS)/1000, tr.DurMS)
	check("all spans stitched", stitched)

	// Curl 2: /debug/queries — the same query, joined by trace ID,
	// carrying its analyzed plan.
	code, body = get(app.QueriesHandler(), "/debug/queries")
	if !check("/debug/queries answers 200", code == 200) {
		return
	}
	var queries e14Queries
	must(json.Unmarshal([]byte(body), &queries))
	var joined bool
	for _, q := range queries.Queries {
		if q.TraceID != tr.ID || !strings.Contains(q.Plan, "actual") {
			continue
		}
		if !joined {
			fmt.Printf("  flight recorder (joined on trace_id=%s): %q -> %d rows in %.2fms, cached=%v\n",
				q.TraceID, q.SQL, q.Rows, q.ElapsedMS, q.PlanCached)
			fmt.Printf("    analyzed plan: %s\n", strings.ReplaceAll(q.Plan, "\n", " | "))
		}
		joined = true
	}
	check("end-to-end attribution (request -> span -> analyzed plan)", sampleSQL != "" && joined)
}

// e14Analyze runs the four acceptance plan shapes and checks the
// analyzed plan's actual output count against the rows Query returns
// for the same SQL (analyze_test.go cross-checks both against the
// test oracle).
func e14Analyze() {
	db := rdb.Open()
	ddl := []string{
		`CREATE TABLE product (oid INTEGER PRIMARY KEY AUTOINCREMENT, family TEXT, code TEXT, name TEXT NOT NULL, price REAL)`,
		`CREATE INDEX ix_family_price ON product(family, price)`,
		`CREATE ORDERED INDEX ord_name ON product(name)`,
		`CREATE TABLE a (oid INTEGER PRIMARY KEY AUTOINCREMENT, k INTEGER)`,
		`CREATE TABLE b (oid INTEGER PRIMARY KEY AUTOINCREMENT, k INTEGER, sub INTEGER)`,
		`CREATE INDEX ix_b ON b(k, sub)`,
		`INSERT INTO a (k) VALUES (1), (2), (3)`,
	}
	for _, s := range ddl {
		_, err := db.Exec(s)
		must(err)
	}
	for i := 0; i < 400; i++ {
		_, err := db.Exec(`INSERT INTO product (family, code, name, price) VALUES (?, ?, ?, ?)`,
			fmt.Sprintf("fam%d", i%8), fmt.Sprintf("c%03d", i), fmt.Sprintf("prod-%03d", i), float64(i%100)+0.5)
		must(err)
	}
	for i := 0; i < 12; i++ {
		_, err := db.Exec(`INSERT INTO b (k, sub) VALUES (?, ?)`, int64(i%4), int64(i))
		must(err)
	}

	shapes := []struct {
		name, sql, marker string
	}{
		{"point lookup", `SELECT name FROM product WHERE oid = 37`, "BY PRIMARY KEY ON oid"},
		{"composite range", `SELECT code FROM product WHERE family = 'fam2' AND price > 10 AND price < 60`, "COMPOSITE INDEX ix_family_price"},
		{"indexed join", `SELECT a.k, b.sub FROM a JOIN b ON b.k = a.k ORDER BY a.k, b.sub`, "JOIN b BY COMPOSITE INDEX ix_b"},
		{"ORDER BY elimination", `SELECT name FROM product ORDER BY name`, "ORDER BY INDEX (sort eliminated"},
	}
	outRe := regexp.MustCompile(`OUTPUT (\d+) rows`)
	fmt.Println("\nEXPLAIN ANALYZE vs Query (actual output rows must agree):")
	for _, s := range shapes {
		out, err := db.ExplainAnalyze(s.sql)
		must(err)
		want, err := db.Query(s.sql)
		must(err)
		m := outRe.FindStringSubmatch(out)
		actual := -1
		if m != nil {
			actual, _ = strconv.Atoi(m[1])
		}
		check(fmt.Sprintf("%s: analyze %d rows = query %d rows, plan %q", s.name, actual, want.Len(), s.marker),
			strings.Contains(out, s.marker) && actual == want.Len())
	}
}
