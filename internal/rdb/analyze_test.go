package rdb

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestExplainAnalyzePointLookup(t *testing.T) {
	db := planDB(t)
	out, err := db.ExplainAnalyze(`SELECT name FROM product WHERE oid = 5`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "BY PRIMARY KEY ON oid") {
		t.Fatalf("point lookup not chosen: %q", out)
	}
	if !strings.Contains(out, "(actual 1 rows, 1 probes,") {
		t.Fatalf("missing point-lookup actuals: %q", out)
	}
	if !strings.Contains(out, "\nOUTPUT 1 rows in ") {
		t.Fatalf("missing output footer: %q", out)
	}
}

func TestExplainAnalyzeCompositeRange(t *testing.T) {
	db := planDB(t)
	sql := `SELECT code FROM product WHERE family = 'fam2' AND price > 10 AND price < 40`
	want, err := db.queryOracle(sql)
	if err != nil {
		t.Fatal(err)
	}
	out, err := db.ExplainAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "COMPOSITE INDEX ix_family_price") || !strings.Contains(out, "range on price") {
		t.Fatalf("composite range not chosen: %q", out)
	}
	if !strings.Contains(out, fmt.Sprintf("\nOUTPUT %d rows in ", want.Len())) {
		t.Fatalf("actual output %d rows not reported: %q", want.Len(), out)
	}
	if want.Len() == 0 {
		t.Fatal("expected matching rows in fixture")
	}
}

func TestExplainAnalyzeIndexedJoin(t *testing.T) {
	db := Open()
	for _, s := range []string{
		`CREATE TABLE a (oid INTEGER PRIMARY KEY AUTOINCREMENT, k INTEGER)`,
		`CREATE TABLE b (oid INTEGER PRIMARY KEY AUTOINCREMENT, k INTEGER, sub INTEGER)`,
		`CREATE INDEX ix_b ON b(k, sub)`,
		`INSERT INTO a (k) VALUES (1), (2)`,
		`INSERT INTO b (k, sub) VALUES (1, 10), (1, 11), (2, 20), (3, 30)`,
	} {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	sql := `SELECT a.k, b.sub FROM a JOIN b ON b.k = a.k ORDER BY a.k, b.sub`
	out, err := db.ExplainAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "JOIN b BY COMPOSITE INDEX ix_b") {
		t.Fatalf("indexed join not chosen: %q", out)
	}
	// Two base rows enter the join, three survive it, one probe each.
	if !strings.Contains(out, "(actual in 2, out 3, 2 probes,") {
		t.Fatalf("join actuals wrong: %q", out)
	}
	if !strings.Contains(out, "\nOUTPUT 3 rows in ") {
		t.Fatalf("missing output footer: %q", out)
	}
}

func TestExplainAnalyzeOrderByElimination(t *testing.T) {
	db := planDB(t)
	out, err := db.ExplainAnalyze(`SELECT name FROM product ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ORDER BY INDEX (sort eliminated") {
		t.Fatalf("sort not eliminated: %q", out)
	}
	if !strings.Contains(out, "(actual 40 rows") || !strings.Contains(out, "\nOUTPUT 40 rows in ") {
		t.Fatalf("ordered-walk actuals wrong: %q", out)
	}
}

// TestExplainAnalyzeWindowAndCount: a scroller window on the primary key
// examines the rows it returns, wherever the window starts, with the
// bound OFFSET in the estimate; COUNT(*) of the table reads nothing and
// is no scan in the access-path counters either.
func TestExplainAnalyzeWindowAndCount(t *testing.T) {
	db := planDB(t)
	window := `SELECT t.oid, t.name FROM product t ORDER BY t.oid LIMIT 10 OFFSET ?`
	for _, c := range []struct {
		offset int
		want   string
		output string
	}{
		{0, "BY ORDERED INDEX ON oid (est 10 rows) (actual 10 rows, 1 probes,", "\nOUTPUT 10 rows in "},
		{30, "BY ORDERED INDEX ON oid (est 10 rows after 30 entries skipped) (actual 10 rows, 1 probes,", "\nOUTPUT 10 rows in "},
		{35, "BY ORDERED INDEX ON oid (est 5 rows after 35 entries skipped) (actual 5 rows, 1 probes,", "\nOUTPUT 5 rows in "},
		{90, "BY ORDERED INDEX ON oid (est 0 rows after 40 entries skipped) (actual 0 rows, 1 probes,", "\nOUTPUT 0 rows in "},
	} {
		out, err := db.ExplainAnalyze(window, c.offset)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, c.want) || !strings.Contains(out, c.output) || !strings.Contains(out, "sort eliminated") {
			t.Fatalf("offset %d: want %q and %q in\n%s", c.offset, c.want, c.output, out)
		}
	}
	before := db.Stats()
	out, err := db.ExplainAnalyze(`SELECT COUNT(*) FROM product t`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "CARDINALITY OF product (40 rows, none read)\nOUTPUT 1 rows in ") {
		t.Fatalf("count of the table should be the cardinality answer:\n%s", out)
	}
	after := db.Stats()
	if after.FullScans != before.FullScans || after.RangeScans != before.RangeScans || after.PointLookups != before.PointLookups {
		t.Fatalf("the cardinality answer moved an access-path counter: %+v -> %+v", before, after)
	}
	if got := rowsExact(mustQuery(t, db, `SELECT COUNT(*) FROM product t`)); got != "40\n" {
		t.Fatalf("COUNT(*) = %q, want 40", got)
	}
}

func TestExplainAnalyzeFilterActuals(t *testing.T) {
	db := planDB(t)
	out, err := db.ExplainAnalyze(`SELECT name FROM product WHERE code != 'c05'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "\nFILTER (actual in 40, out 39)") {
		t.Fatalf("filter actuals wrong: %q", out)
	}
}

// outputRows parses the "OUTPUT n rows" footer of an analyzed plan.
func outputRows(t *testing.T, out string) int {
	t.Helper()
	m := regexp.MustCompile(`OUTPUT (\d+) rows`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no OUTPUT footer in %q", out)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestExplainAnalyzeMatchesInterpreter checks the acceptance shapes:
// the analyzed plan's actual output count equals what the reference
// oracle returns for the same SQL.
func TestExplainAnalyzeMatchesInterpreter(t *testing.T) {
	db := planDB(t)
	for _, sql := range []string{
		`SELECT name FROM product WHERE oid = 7`,
		`SELECT code FROM product WHERE family = 'fam1' AND price > 5 AND price < 45`,
		`SELECT name FROM product ORDER BY name LIMIT 10`,
		`SELECT name FROM product WHERE price > 20`,
	} {
		want, err := db.queryOracle(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		out, err := db.ExplainAnalyze(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if got := outputRows(t, out); got != want.Len() {
			t.Fatalf("%s: analyzed output %d rows != oracle %d\n%s", sql, got, want.Len(), out)
		}
	}
}

func TestExplainAnalyzePlanCacheMarker(t *testing.T) {
	db := planDB(t)
	sql := `SELECT name FROM product WHERE oid = 9`
	out, err := db.ExplainAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "\nPLAN: compiled") {
		t.Fatalf("first analyze should compile: %q", out)
	}
	out, err = db.ExplainAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "\nPLAN: cached") {
		t.Fatalf("second analyze should hit the plan cache: %q", out)
	}
	// Plain EXPLAIN carries the same provenance marker.
	plan, err := db.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "\nPLAN: cached") {
		t.Fatalf("EXPLAIN should report the cached plan: %q", plan)
	}
	fresh := `SELECT code FROM product WHERE oid = 2`
	plan, err = db.Explain(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "\nPLAN: compiled") {
		t.Fatalf("EXPLAIN of a fresh statement should report a compile: %q", plan)
	}
}

func TestExplainAnalyzeRejectsNonSelect(t *testing.T) {
	db := planDB(t)
	if _, err := db.ExplainAnalyze(`INSERT INTO family (name) VALUES ('x')`); err == nil {
		t.Fatal("expected an error for non-SELECT")
	}
	// And it must not have executed: the insert above would be row 5.
	rows, err := db.Query(`SELECT COUNT(*) FROM family`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rows.Data[0][0].Value()) != "4" {
		t.Fatalf("non-SELECT was executed: %v", rows.Data)
	}
}

func TestExplainAnalyzeCountsInStats(t *testing.T) {
	db := planDB(t)
	before := db.Stats().AnalyzedQueries
	if _, err := db.ExplainAnalyze(`SELECT name FROM product WHERE oid = 1`); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().AnalyzedQueries; got != before+1 {
		t.Fatalf("AnalyzedQueries = %d, want %d", got, before+1)
	}
}
