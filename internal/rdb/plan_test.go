package rdb

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

func planDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	setup := []string{
		`CREATE TABLE product (oid INTEGER PRIMARY KEY AUTOINCREMENT, family TEXT, code TEXT, price INTEGER, name TEXT NOT NULL)`,
		`CREATE INDEX ix_family_price ON product(family, price)`,
		`CREATE ORDERED INDEX ord_name ON product(name)`,
		`CREATE TABLE family (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT)`,
	}
	for _, s := range setup {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	for i := 0; i < 40; i++ {
		fam := fmt.Sprintf("fam%d", i%4)
		if _, err := db.Exec(`INSERT INTO product (family, code, price, name) VALUES (?, ?, ?, ?)`,
			fam, fmt.Sprintf("c%02d", i), (i*7)%50, fmt.Sprintf("n%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := db.Exec(`INSERT INTO family (name) VALUES (?)`, fmt.Sprintf("fam%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestCompositeIndexAccess(t *testing.T) {
	db := planDB(t)
	plan, err := db.Explain(`SELECT name FROM product WHERE family = 'fam1' AND price = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "COMPOSITE INDEX ix_family_price") || !strings.Contains(plan, "eq prefix 2") {
		t.Fatalf("composite index not chosen: %q", plan)
	}
	got, err := db.Query(`SELECT name FROM product WHERE family = 'fam1' AND price = 7`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.queryOracle(`SELECT name FROM product WHERE family = 'fam1' AND price = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
		t.Fatalf("plan path %v != oracle %v", got.Data, want.Data)
	}
	if got.Len() == 0 {
		t.Fatal("expected matching rows in fixture")
	}
}

func TestCompositeRangeAfterPrefix(t *testing.T) {
	db := planDB(t)
	sql := `SELECT code FROM product WHERE family = 'fam2' AND price > 10 AND price < 40`
	plan, err := db.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "COMPOSITE INDEX") || !strings.Contains(plan, "range on price") {
		t.Fatalf("composite range not chosen: %q", plan)
	}
	got, _ := db.Query(sql)
	want, _ := db.queryOracle(sql)
	if rowsMultiset(got) != rowsMultiset(want) {
		t.Fatalf("plan path %v != oracle %v", got.Data, want.Data)
	}
}

func TestSortEliminationOrderedWalk(t *testing.T) {
	db := planDB(t)
	for _, c := range []struct {
		sql  string
		want string
	}{
		{`SELECT name FROM product ORDER BY name`, "sort eliminated"},
		{`SELECT name FROM product ORDER BY name DESC`, "sort eliminated"},
		{`SELECT name FROM product WHERE name > 'n10' ORDER BY name`, "sort eliminated"},
		{`SELECT family, price FROM product WHERE family = 'fam1' ORDER BY price`, "sort eliminated"},
		{`SELECT family, price FROM product WHERE family = 'fam1' ORDER BY price DESC`, "sort eliminated"},
	} {
		plan, err := db.Explain(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if !strings.Contains(plan, c.want) {
			t.Fatalf("%s: expected %q in plan %q", c.sql, c.want, plan)
		}
		got, err := db.Query(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.queryOracle(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
			t.Fatalf("%s: order differs from oracle:\n%v\n%v", c.sql, got.Data, want.Data)
		}
	}
	if db.Stats().SortsEliminated == 0 {
		t.Fatal("SortsEliminated counter did not move")
	}
}

// TestOrderedWalkOnNullableColumn: a sorted index holds NULL keys too,
// so a walk over a nullable column is a complete ordered view — it
// serves ORDER BY with no sort and returns the NULL rows where the
// oracle's sort puts them, in both directions and through a window.
func TestOrderedWalkOnNullableColumn(t *testing.T) {
	db := planDB(t)
	mustExec(t, db, `CREATE ORDERED INDEX ord_code ON product(code)`)
	mustExec(t, db, `INSERT INTO product (family, code, price, name) VALUES
		('fam9', NULL, 1, 'x1'), ('fam9', 'c05', 2, 'x2'), ('fam9', NULL, 3, 'x3')`)
	mustExec(t, db, `UPDATE product SET code = NULL WHERE name = 'n07'`)
	for _, sql := range []string{
		`SELECT code, name FROM product ORDER BY code`,
		`SELECT code, name FROM product ORDER BY code DESC`,
		`SELECT code, name FROM product ORDER BY code LIMIT 5 OFFSET 2`,
		`SELECT code, name FROM product ORDER BY code DESC LIMIT 5 OFFSET 39`,
	} {
		if plan := mustExplain(t, db, sql); !strings.Contains(plan, "BY ORDERED INDEX ON code") || !strings.Contains(plan, "sort eliminated") {
			t.Fatalf("%s: the nullable walk does not serve ORDER BY: %q", sql, plan)
		}
		compareEngines(t, db, sql, nil)
	}
	if got := rowsExact(mustQuery(t, db, `SELECT name FROM product ORDER BY code LIMIT 4`)); got != "n07\nx1\nx3\nn00\n" {
		t.Fatalf("NULL rows are not first, in row-id order: %q", got)
	}
}

func TestPlanCacheHitsAndDDLInvalidation(t *testing.T) {
	db := planDB(t)
	sql := `SELECT name FROM product WHERE code = 'c07'`
	before := db.Stats()
	for i := 0; i < 3; i++ {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	mid := db.Stats()
	if mid.PlanCacheMisses-before.PlanCacheMisses != 1 {
		t.Fatalf("expected exactly one plan build, got %d misses", mid.PlanCacheMisses-before.PlanCacheMisses)
	}
	if mid.PlanCacheHits-before.PlanCacheHits != 2 {
		t.Fatalf("expected two plan cache hits, got %d", mid.PlanCacheHits-before.PlanCacheHits)
	}
	// The cached plan scans; creating an index must invalidate it.
	if !strings.Contains(mustExplain(t, db, sql), "SCAN product") {
		t.Fatalf("expected scan before index")
	}
	if _, err := db.Exec(`CREATE INDEX ix_code ON product(code)`); err != nil {
		t.Fatal(err)
	}
	plan := mustExplain(t, db, sql)
	if !strings.Contains(plan, "BY INDEX ON code") {
		t.Fatalf("CREATE INDEX did not take effect on cached plan: %q", plan)
	}
}

func TestPlanRevalidatedOnGrowth(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`CREATE TABLE g (oid INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)`); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT v FROM g WHERE v = 1`
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := db.Exec(`INSERT INTO g (v) VALUES (?)`, i); err != nil {
			t.Fatal(err)
		}
	}
	// Measured after the inserts: an INSERT is planned (once) too.
	m0 := db.Stats().PlanCacheMisses
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	if db.Stats().PlanCacheMisses == m0 {
		t.Fatal("plan not rebuilt after table crossed size classes")
	}
}

// Writes share the plan cache and its validity rule: an UPDATE compiles
// once per SQL text, and CREATE INDEX or InvalidatePlan replan it.
func TestWritePlansAreCachedAndRevalidated(t *testing.T) {
	db := planDB(t)
	sql := `UPDATE product SET price = ? WHERE code = ?`
	before := db.Stats()
	for _, code := range []string{"c01", "c02", "c03"} {
		if res := mustExec(t, db, sql, 100, code); res.RowsAffected != 1 {
			t.Fatalf("%s: %d rows", code, res.RowsAffected)
		}
	}
	after := db.Stats()
	if after.PlanCacheMisses-before.PlanCacheMisses != 1 || after.PlanCacheHits-before.PlanCacheHits != 2 {
		t.Fatalf("three executions: %d misses, %d hits; want 1 and 2",
			after.PlanCacheMisses-before.PlanCacheMisses, after.PlanCacheHits-before.PlanCacheHits)
	}
	if plan := mustExplain(t, db, sql); !strings.HasPrefix(plan, "UPDATE product\nSCAN product") {
		t.Fatalf("before the index: %q", plan)
	}
	mustExec(t, db, `CREATE INDEX ix_code ON product(code)`)
	if plan := mustExplain(t, db, sql); !strings.HasPrefix(plan, "UPDATE product\nACCESS product BY INDEX ON code") {
		t.Fatalf("CREATE INDEX did not replan the write: %q", plan)
	}
	m0 := db.Stats().PlanCacheMisses
	db.InvalidatePlan(sql)
	mustExec(t, db, sql, 100, "c04")
	if db.Stats().PlanCacheMisses != m0+1 {
		t.Fatal("InvalidatePlan did not drop the cached write plan")
	}
	if got := rowsExact(mustQuery(t, db, `SELECT code FROM product WHERE price = 100 ORDER BY code`)); got != "c01\nc02\nc03\nc04\n" {
		t.Fatalf("prices after the updates: %q", got)
	}
}

func TestInvalidatePlan(t *testing.T) {
	db := planDB(t)
	sql := `SELECT name FROM product WHERE oid = 1`
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	m0 := db.Stats().PlanCacheMisses
	db.InvalidatePlan(sql)
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	if db.Stats().PlanCacheMisses != m0+1 {
		t.Fatal("InvalidatePlan did not drop the cached plan")
	}
}

func TestAccessPathCounters(t *testing.T) {
	db := planDB(t)
	if _, err := db.Query(`SELECT name FROM product WHERE oid = 3`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT name FROM product WHERE name > 'n30'`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT COUNT(*) FROM product`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT p.name, f.name FROM product p JOIN family f ON f.oid = p.oid`); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	if s.PointLookups == 0 || s.RangeScans == 0 || s.FullScans == 0 || s.IndexedJoins == 0 {
		t.Fatalf("counters did not move: %+v", s)
	}
}

func TestCompositeJoin(t *testing.T) {
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
	plan := mustExplain(t, db, sql)
	if !strings.Contains(plan, "JOIN b BY COMPOSITE INDEX ix_b") {
		t.Fatalf("composite join not chosen: %q", plan)
	}
	got, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.queryOracle(sql)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Data) != fmt.Sprint(want.Data) {
		t.Fatalf("composite join %v != oracle %v", got.Data, want.Data)
	}
}

func TestStmtCacheLRUBound(t *testing.T) {
	db := Open()
	if _, err := db.Exec(`CREATE TABLE t (oid INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	// Issue more distinct statements than the cache holds; the cache must
	// stay bounded and keep working.
	for i := 0; i < stmtCacheCap+50; i++ {
		if _, err := db.Query(fmt.Sprintf(`SELECT oid FROM t WHERE oid = %d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	db.stmtMu.Lock()
	n := db.stmtCache.len()
	db.stmtMu.Unlock()
	if n > stmtCacheCap {
		t.Fatalf("statement cache unbounded: %d > %d", n, stmtCacheCap)
	}
	db.planMu.Lock()
	pn := db.planCache.len()
	db.planMu.Unlock()
	if pn > planCacheCap {
		t.Fatalf("plan cache unbounded: %d > %d", pn, planCacheCap)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newLRU[string, int](2)
	c.put("a", 1)
	c.put("b", 2)
	if _, ok := c.get("a"); !ok { // refresh a
		t.Fatal("a missing")
	}
	c.put("c", 3) // evicts b, the least recently used
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c should be present")
	}
	c.remove("a")
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
}

// TestLikePathologicalPattern pins the iterative matcher's worst-case
// behavior: the previous recursive implementation took exponential time
// on this input and would blow far past the timeout.
func TestLikePathologicalPattern(t *testing.T) {
	s := strings.Repeat("a", 3000) + "c"
	pattern := "%a%a%a%a%a%a%b"
	done := make(chan bool, 1)
	go func() {
		done <- likeMatch(s, pattern)
	}()
	select {
	case got := <-done:
		if got {
			t.Fatal("pattern must not match")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("likeMatch did not terminate in time on pathological pattern")
	}
	// And the matcher still agrees with LIKE semantics on normal inputs.
	for _, c := range []struct {
		s, p string
		want bool
	}{
		{"hello", "h%", true},
		{"hello", "%LLO", true},
		{"hello", "h_llo", true},
		{"hello", "h_l", false},
		{"", "%", true},
		{"", "", true},
		{"x", "", false},
		{"abc", "%%%", true},
		{"abc", "a%c", true},
		{"abc", "a%b", false},
		{strings.Repeat("ab", 500), "%ab%ab%ab", true},
	} {
		if got := likeMatch(c.s, c.p); got != c.want {
			t.Fatalf("likeMatch(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func mustExplain(t *testing.T, db *DB, sql string) string {
	t.Helper()
	plan, err := db.Explain(sql)
	if err != nil {
		t.Fatalf("explain %s: %v", sql, err)
	}
	return plan
}

// TestIndexKeysFindWhatAScanFinds: every index path keys a value the way
// SQL compares it — a row stored with -0.0 is found by = 0, an INTEGER key
// by = 1.0 — and none ever finds a NULL, on a live database and on one
// whose indexes were rebuilt from their persisted images.
func TestIndexKeysFindWhatAScanFinds(t *testing.T) {
	negZero := math.Copysign(0, -1)
	setup := func(t *testing.T, db *DB) {
		mustExecAll(t, db, []string{
			`CREATE TABLE rk (k REAL PRIMARY KEY, v TEXT)`,
			`CREATE TABLE ik (k INTEGER PRIMARY KEY, v TEXT)`,
			`CREATE TABLE h (oid INTEGER PRIMARY KEY, r REAL, i INTEGER, v TEXT)`,
			`CREATE INDEX h_r ON h (r)`,
			`CREATE INDEX h_i ON h (i)`,
			`CREATE TABLE u (oid INTEGER PRIMARY KEY, r REAL UNIQUE, i INTEGER UNIQUE, v TEXT)`,
			`CREATE TABLE o (oid INTEGER PRIMARY KEY, r REAL, i INTEGER, v TEXT)`,
			`CREATE ORDERED INDEX o_r ON o (r)`,
			`CREATE ORDERED INDEX o_i ON o (i)`,
		})
		for _, s := range []struct {
			sql  string
			args []Value
		}{
			{`INSERT INTO rk (k, v) VALUES (?, 'zero'), (1.5, 'other')`, []Value{negZero}},
			{`INSERT INTO ik (k, v) VALUES (1, 'one'), (2, 'other')`, nil},
			{`INSERT INTO h (oid, r, i, v) VALUES (1, ?, 1, 'hit'), (2, NULL, NULL, 'null'), (3, 1.5, 2, 'other')`, []Value{negZero}},
			{`INSERT INTO u (oid, r, i, v) VALUES (1, ?, 1, 'hit'), (2, NULL, NULL, 'null'), (3, 1.5, 2, 'other')`, []Value{negZero}},
			{`INSERT INTO o (oid, r, i, v) VALUES (1, ?, 1, 'hit'), (2, NULL, NULL, 'null'), (3, 1.5, 2, 'other')`, []Value{negZero}},
		} {
			if _, err := db.Exec(s.sql, s.args...); err != nil {
				t.Fatalf("%s: %v", s.sql, err)
			}
		}
	}
	cases := []struct {
		sql  string
		arg  Value
		path string // in the EXPLAIN line of the base table
		want string // rowsExact
	}{
		{`SELECT v FROM rk WHERE k = 0`, nil, "BY PRIMARY KEY", "zero\n"},
		{`SELECT v FROM rk WHERE k = ?`, 0.0, "BY PRIMARY KEY", "zero\n"},
		{`SELECT v FROM rk WHERE k = ?`, nil, "BY PRIMARY KEY", ""},
		{`SELECT v FROM ik WHERE k = 1.0`, nil, "BY PRIMARY KEY", "one\n"},
		{`SELECT v FROM ik WHERE k = ?`, nil, "BY PRIMARY KEY", ""},
		{`SELECT v FROM h WHERE r = 0`, nil, "BY INDEX", "hit\n"},
		{`SELECT v FROM h WHERE i = 1.0`, nil, "BY INDEX", "hit\n"},
		{`SELECT v FROM h WHERE r = ?`, nil, "BY INDEX", ""},
		{`SELECT v FROM h WHERE i = ?`, nil, "BY INDEX", ""},
		{`SELECT v FROM u WHERE r = 0`, nil, "BY UNIQUE", "hit\n"},
		{`SELECT v FROM u WHERE i = 1.0`, nil, "BY UNIQUE", "hit\n"},
		{`SELECT v FROM u WHERE r = ?`, nil, "BY UNIQUE", ""},
		{`SELECT v FROM u WHERE i = ?`, nil, "BY UNIQUE", ""},
		{`SELECT v FROM o WHERE r >= 0 AND r <= 0`, nil, "BY RANGE", "hit\n"},
		{`SELECT v FROM o WHERE i >= 1.0 AND i <= 1.0`, nil, "BY RANGE", "hit\n"},
		{`SELECT v FROM o WHERE r >= ?`, nil, "BY RANGE", ""},
		{`SELECT v FROM o WHERE i <= ?`, nil, "BY RANGE", ""},
	}
	check := func(t *testing.T, db *DB) {
		for _, c := range cases {
			plan, err := db.Explain(c.sql)
			if err != nil || !strings.Contains(strings.SplitN(plan, "\n", 2)[0], c.path) {
				t.Errorf("%s: plan %q (err %v), want %s", c.sql, plan, err, c.path)
			}
			args := []Value{c.arg}
			if !strings.Contains(c.sql, "?") {
				args = nil
			}
			if got := rowsExact(mustQuery(t, db, c.sql, args...)); got != c.want {
				t.Errorf("%s %v: got %q, want %q", c.sql, args, got, c.want)
			}
		}
	}
	t.Run("memory", func(t *testing.T) {
		db := Open()
		setup(t, db)
		check(t, db)
	})
	t.Run("recovered", func(t *testing.T) {
		dir := t.TempDir()
		db := openPaging(t, dir)
		setup(t, db)
		db = reopenPaging(t, db, dir)
		defer db.Close()
		check(t, db)
	})
}

func TestExplainAccessPaths(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want []string
	}{
		{`SELECT * FROM volume WHERE oid = 1`,
			[]string{"ACCESS volume BY PRIMARY KEY ON oid"}},
		// The primary key as an order and a range, no index DDL needed.
		{`SELECT * FROM paper t ORDER BY t.oid`,
			[]string{"ACCESS paper BY ORDERED INDEX ON oid (est 4 rows)", "ORDER BY INDEX (sort eliminated, 1 keys)"}},
		{`SELECT * FROM paper t ORDER BY t.oid DESC LIMIT 2 OFFSET 1`,
			[]string{"ACCESS paper BY ORDERED INDEX ON oid (est 2 rows after 1 entries skipped)", "sort eliminated", "LIMIT"}},
		{`SELECT * FROM paper t ORDER BY t.oid LIMIT 2 OFFSET ?`,
			[]string{"ACCESS paper BY ORDERED INDEX ON oid (est 4 rows)", "sort eliminated"}},
		{`SELECT * FROM paper WHERE oid > ? ORDER BY oid`,
			[]string{"ACCESS paper BY RANGE ON oid", "sort eliminated"}},
		// The live-row count as an answer; a filtered count still reads rows.
		{`SELECT COUNT(*) FROM paper t`,
			[]string{"CARDINALITY OF paper (4 rows, none read)\nPLAN"}},
		{`SELECT COUNT(*) FROM paper WHERE pages > 22`,
			[]string{"SCAN paper (4 rows)"}},
		// A foreign-key bucket beats walking the whole key for its order
		// (relationship units, hierarchical levels).
		{`SELECT * FROM issue t WHERE t.volume_oid = ? ORDER BY t.oid`,
			[]string{"ACCESS issue BY INDEX ON volume_oid", "SORT 1 keys"}},
		{`SELECT * FROM issue WHERE volume_oid = 1`,
			[]string{"ACCESS issue BY INDEX ON volume_oid"}},
		{`SELECT * FROM volume WHERE title = 'x'`,
			[]string{"SCAN volume"}},
		{`SELECT * FROM volume v JOIN issue i ON i.volume_oid = v.oid WHERE v.oid = 1`,
			[]string{"ACCESS volume BY PRIMARY KEY", "INNER JOIN issue BY INDEX ON volume_oid"}},
		{`SELECT * FROM volume v JOIN issue i ON i.number = v.year`,
			[]string{"SCAN volume", "INNER JOIN issue BY NESTED LOOP"}},
		{`SELECT issue_oid FROM paper ORDER BY issue_oid LIMIT 5`,
			[]string{"SCAN paper", "SORT 1 keys", "LIMIT"}},
		// A write is the plan of the rows it writes.
		{`UPDATE paper SET pages = ? WHERE oid = ?`,
			[]string{"UPDATE paper\nACCESS paper BY PRIMARY KEY ON oid (est 1 rows)\nPLAN"}},
		{`DELETE FROM paper WHERE oid > ?`,
			[]string{"DELETE FROM paper\nACCESS paper BY RANGE ON oid"}},
		{`DELETE FROM issue WHERE volume_oid = ? AND number = ?`,
			[]string{"DELETE FROM issue\nACCESS issue BY INDEX ON volume_oid"}},
		{`DELETE FROM paper`,
			[]string{"DELETE FROM paper\nSCAN paper (4 rows)\nPLAN"}},
	}
	for _, c := range cases {
		plan, err := db.Explain(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		for _, w := range c.want {
			if !strings.Contains(plan, w) {
				t.Errorf("%s:\nplan %q\nmissing %q", c.sql, plan, w)
			}
		}
	}
	if _, err := db.Explain(`INSERT INTO volume (title) VALUES ('x')`); err == nil || !strings.Contains(err.Error(), "EXPLAIN supports SELECT, UPDATE and DELETE") {
		t.Fatalf("EXPLAIN of INSERT: %v", err)
	}
	if _, err := db.Explain(`SELECT * FROM ghost`); err == nil {
		t.Fatal("EXPLAIN of unknown table accepted")
	}
}

func TestExplainUniqueAccess(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE u (oid INTEGER PRIMARY KEY, email TEXT UNIQUE)`)
	plan, err := db.Explain(`SELECT * FROM u WHERE email = 'a@x'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "BY UNIQUE ON email") {
		t.Fatalf("plan = %q", plan)
	}
}
