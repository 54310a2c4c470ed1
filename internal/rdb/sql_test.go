package rdb

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func testDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	stmts := []string{
		`CREATE TABLE volume (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT NOT NULL, year INTEGER)`,
		`CREATE TABLE issue (oid INTEGER PRIMARY KEY AUTOINCREMENT, number INTEGER, volume_oid INTEGER,
			FOREIGN KEY (volume_oid) REFERENCES volume(oid))`,
		`CREATE TABLE paper (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT, pages INTEGER, issue_oid INTEGER,
			FOREIGN KEY (issue_oid) REFERENCES issue(oid))`,
		`CREATE INDEX idx_issue_volume ON issue(volume_oid)`,
		`CREATE INDEX idx_paper_issue ON paper(issue_oid)`,
	}
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("setup %q: %v", s, err)
		}
	}
	mustExec(t, db, `INSERT INTO volume (title, year) VALUES ('TODS 27', 2002), ('TODS 26', 2001)`)
	mustExec(t, db, `INSERT INTO issue (number, volume_oid) VALUES (1, 1), (2, 1), (1, 2)`)
	mustExec(t, db, `INSERT INTO paper (title, pages, issue_oid) VALUES
		('Query Optimization', 30, 1),
		('Web Modelling', 25, 1),
		('Caching Dynamic Content', 40, 2),
		('Views and Updates', 22, 3)`)
	return db
}

func mustExec(t *testing.T, db *DB, sql string, args ...Value) Result {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func mustQuery(t *testing.T, db *DB, sql string, args ...Value) *Rows {
	t.Helper()
	rows, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	return rows
}

// sqlRunner is what DB and inTx share.
type sqlRunner interface {
	Query(sql string, args ...Value) (*Rows, error)
	Exec(sql string, args ...Value) (Result, error)
}

// inTx runs a transaction's reads. The Tx holds the exclusive lock,
// which planFor and execPlan need only shared access under.
type inTx struct{ *Tx }

func (q inTx) Query(sql string, args ...Value) (*Rows, error) {
	st, err := q.db.prepare(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("inTx: %q is not a SELECT", sql)
	}
	cargs, err := coerceArgs(st, args)
	if err != nil {
		return nil, err
	}
	p, err := q.db.planFor(sql, sel)
	if err != nil {
		return nil, err
	}
	return q.db.execPlan(p, cargs, nil)
}

// addTo adds d to the integer column col of the one row of table whose
// column key is id: a read, then a write of the sum, since the grammar
// has no arithmetic. Through a Tx, which holds the exclusive lock, the
// two are one step.
func addTo(q sqlRunner, table, col, key string, id Value, d int64) error {
	rows, err := q.Query(`SELECT `+col+` FROM `+table+` WHERE `+key+` = ?`, id)
	if err != nil {
		return err
	}
	if rows.Len() != 1 {
		return fmt.Errorf("%s where %s = %v: %d rows", table, key, id, rows.Len())
	}
	_, err = q.Exec(`UPDATE `+table+` SET `+col+` = ? WHERE `+key+` = ?`, rows.Data[0][0].Int()+d, id)
	return err
}

func TestSelectAll(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(t, db, `SELECT * FROM volume`)
	if rows.Len() != 2 {
		t.Fatalf("rows = %d", rows.Len())
	}
	if got := len(rows.Columns); got != 3 {
		t.Fatalf("columns = %v", rows.Columns)
	}
}

func TestSelectWherePrimaryKey(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(t, db, `SELECT title FROM volume WHERE oid = ?`, 1)
	if rows.Len() != 1 || rows.Data[0][0].Value() != "TODS 27" {
		t.Fatalf("got %v", rows.Data)
	}
}

func TestSelectProjectionAndAlias(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(t, db, `SELECT title AS t, year FROM volume WHERE year = 2002`)
	if rows.Columns[0] != "t" || rows.Columns[1] != "year" {
		t.Fatalf("columns = %v", rows.Columns)
	}
	if rows.Data[0][0].Value() != "TODS 27" {
		t.Fatalf("data = %v", rows.Data)
	}
}

func TestSelectComparisons(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{"pages > 25", 2},
		{"pages >= 25", 3},
		{"pages < 25", 1},
		{"pages <> 30", 3},
		{"pages = 30", 1},
		{"pages != 30", 3},
		{"pages > -1", 4},
		{"pages > 20 AND pages < 28", 2},
		{"pages >= 25 AND pages <= 35 AND pages <> 30", 1},
	}
	for _, c := range cases {
		rows := mustQuery(t, db, `SELECT oid FROM paper WHERE `+c.where)
		if rows.Len() != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, rows.Len(), c.want)
		}
	}
}

func TestSelectLike(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(t, db, `SELECT title FROM paper WHERE title LIKE ?`, "%web%")
	if rows.Len() != 1 || rows.Data[0][0].Value() != "Web Modelling" {
		t.Fatalf("got %v", rows.Data)
	}
	rows = mustQuery(t, db, `SELECT title FROM paper WHERE title LIKE 'Views and Update_'`)
	if rows.Len() != 1 {
		t.Fatalf("got %v", rows.Data)
	}
}

func TestSelectOrderLimitOffset(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(t, db, `SELECT title FROM paper ORDER BY pages DESC LIMIT 2 OFFSET 1`)
	if rows.Len() != 2 {
		t.Fatalf("rows = %d", rows.Len())
	}
	if rows.Data[0][0].Value() != "Query Optimization" || rows.Data[1][0].Value() != "Web Modelling" {
		t.Fatalf("got %v", rows.Data)
	}
}

func TestSelectOrderMultipleKeys(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(t, db, `SELECT number, volume_oid FROM issue ORDER BY number ASC, volume_oid DESC`)
	want := [][]Value{{int64(1), int64(2)}, {int64(1), int64(1)}, {int64(2), int64(1)}}
	for i, w := range want {
		if rows.Data[i][0].Value() != w[0] || rows.Data[i][1].Value() != w[1] {
			t.Fatalf("row %d = %v, want %v", i, rows.Data[i], w)
		}
	}
}

func TestSelectDistinct(t *testing.T) {
	mustRefuse(t, testDB(t), `SELECT DISTINCT number FROM issue`, "DISTINCT")
}

// TestDistinctKeepsValuesApart: a comparison holds values to what they
// are — NULL and the text 'NULL' are two, and so are texts that differ
// only in where a separator byte falls — while an integer and a real it
// equals are one. The oracle compares the same rows.
func TestDistinctKeepsValuesApart(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE v (oid INTEGER PRIMARY KEY, title TEXT, a TEXT, b TEXT, n INTEGER, r REAL)`)
	for _, row := range [][]Value{
		{int64(1), nil, "p\x1f", "q", int64(1), 1.0},
		{int64(2), "NULL", "p", "\x1fq", int64(2), 2.5},
		{int64(3), "1", "p", "\x1fq", int64(1), nil},
		{int64(4), "NULL", "p\x1f", "q", int64(3), 3.0},
		{int64(5), nil, "p", "q", int64(3), nil},
	} {
		mustExec(t, db, `INSERT INTO v (oid, title, a, b, n, r) VALUES (?, ?, ?, ?, ?, ?)`, row...)
	}
	for _, c := range []struct {
		sql  string
		args []Value
		want string
	}{
		{`SELECT oid FROM v WHERE title = 'NULL'`, nil, "2\n4\n"},
		{`SELECT oid FROM v WHERE title = ?`, []Value{nil}, ""},
		{`SELECT oid FROM v WHERE a = 'p' AND b = ?`, []Value{"\x1fq"}, "2\n3\n"},
		{`SELECT oid FROM v WHERE a = ? AND b = 'q'`, []Value{"p"}, "5\n"},
		{`SELECT oid FROM v WHERE r = 1`, nil, "1\n"},
		{`SELECT oid FROM v WHERE n = 1.0`, nil, "1\n3\n"},
		{`SELECT oid FROM v WHERE r = n`, nil, "1\n4\n"},
	} {
		if got := rowsExact(mustQuery(t, db, c.sql, c.args...)); got != c.want {
			t.Errorf("%s %v: got %q, want %q", c.sql, c.args, got, c.want)
		}
		compareEngines(t, db, c.sql, c.args)
	}
}

func TestInnerJoin(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(t, db, `
		SELECT v.title, i.number, p.title
		FROM volume v
		JOIN issue i ON i.volume_oid = v.oid
		JOIN paper p ON p.issue_oid = i.oid
		WHERE v.oid = ?
		ORDER BY p.pages`, 1)
	if rows.Len() != 3 {
		t.Fatalf("rows = %d: %v", rows.Len(), rows.Data)
	}
	for _, r := range boxed(rows) {
		if r[0] != "TODS 27" {
			t.Fatalf("wrong volume in %v", r)
		}
	}
}

func TestLeftJoin(t *testing.T) {
	mustRefuse(t, testDB(t), `SELECT i.number, p.title FROM issue i LEFT JOIN paper p ON p.issue_oid = i.oid`, "LEFT")
}

func TestJoinWithoutIndexFallsBackToNestedLoop(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE a (x INTEGER)`)
	mustExec(t, db, `CREATE TABLE b (y INTEGER)`)
	mustExec(t, db, `INSERT INTO a (x) VALUES (1), (2)`)
	mustExec(t, db, `INSERT INTO b (y) VALUES (2), (3)`)
	rows := mustQuery(t, db, `SELECT a.x FROM a JOIN b ON a.x = b.y`)
	if rows.Len() != 1 || rows.Data[0][0].Value() != int64(2) {
		t.Fatalf("got %v", rows.Data)
	}
}

// TestAggregates: COUNT(*) alone is the one aggregate.
func TestAggregates(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(t, db, `SELECT COUNT(*) AS n FROM paper WHERE pages > 24`)
	if rows.Columns[0] != "n" || rows.Data[0][0].Value() != int64(3) {
		t.Fatalf("got %v %v", rows.Columns, rows.Data)
	}
	for _, fn := range []string{"SUM", "MIN", "MAX", "AVG"} {
		mustRefuse(t, db, `SELECT `+fn+`(pages) FROM paper`, fn)
	}
	mustRefuse(t, db, `SELECT COUNT(pages) FROM paper`, "COUNT")
	mustRefuse(t, db, `SELECT title, COUNT(*) FROM paper`, "COUNT")
}

func TestGroupByHaving(t *testing.T) {
	db := testDB(t)
	mustRefuse(t, db, `SELECT COUNT(*) FROM paper GROUP BY issue_oid`, "GROUP")
	mustRefuse(t, db, `SELECT COUNT(*) FROM paper HAVING COUNT(*) > 1`, "HAVING")
}

func TestCountEmptyGroup(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM paper WHERE pages > 1000`)
	if rows.Data[0][0].Value() != int64(0) {
		t.Fatalf("got %v", rows.Data)
	}
}

func TestScalarFunctions(t *testing.T) {
	db := testDB(t)
	for _, fn := range []string{"LOWER", "UPPER", "LENGTH"} {
		mustRefuse(t, db, `SELECT `+fn+`(title) FROM volume WHERE oid = 1`, fn)
	}
}

func TestInsertAutoIncrementAndLastID(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `INSERT INTO volume (title, year) VALUES (?, ?)`, "TODS 28", 2003)
	if res.LastInsertID != 3 || res.RowsAffected != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestUpdate(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `UPDATE paper SET pages = ? WHERE issue_oid = 1`, 5)
	if res.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	if got := rowsExact(mustQuery(t, db, `SELECT pages FROM paper ORDER BY oid`)); got != "5\n5\n40\n22\n" {
		t.Fatalf("pages = %q", got)
	}
}

func TestDelete(t *testing.T) {
	db := testDB(t)
	res := mustExec(t, db, `DELETE FROM paper WHERE pages < 25`)
	if res.RowsAffected != 1 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	n, _ := db.RowCount("paper")
	if n != 3 {
		t.Fatalf("count = %d", n)
	}
}

// R1 covers writes: a bad name in UPDATE or DELETE is the planner's error
// whether or not a row ever reaches it.
func TestDMLNameErrorsAreDataIndependent(t *testing.T) {
	empty := Open()
	mustExec(t, empty, `CREATE TABLE paper (oid INTEGER PRIMARY KEY AUTOINCREMENT, title TEXT, pages INTEGER, issue_oid INTEGER)`)
	for label, db := range map[string]*DB{"full": testDB(t), "empty": empty} {
		for _, c := range []struct{ sql, want string }{
			{`DELETE FROM paper WHERE ghost = 1 AND oid = 999`, `rdb: unknown column "ghost"`},
			{`DELETE FROM paper WHERE FALSE AND ghost = 1`, `rdb: unknown column "ghost"`},
			{`UPDATE paper SET pages = ghost WHERE oid = 999`, `rdb: unknown column "ghost"`},
			{`UPDATE paper SET ghost = 1 WHERE oid = 999`, `rdb: no column "ghost" in table "paper"`},
			{`UPDATE paper SET pages = 1 WHERE x.oid = 1`, `rdb: unknown table or alias "x"`},
		} {
			if _, err := db.Exec(c.sql); err == nil || err.Error() != c.want {
				t.Errorf("%s table, %s: got %v, want %s", label, c.sql, err, c.want)
			}
		}
	}
}

// A write reads its rows through the plan a SELECT would use, and the
// access-path counters count it.
func TestDMLAccessPathsAreCounted(t *testing.T) {
	db := testDB(t)
	for _, c := range []struct {
		sql                  string
		arg                  Value
		point, ranges, scans uint64
	}{
		{`UPDATE paper SET pages = 1 WHERE oid = ?`, 2, 1, 0, 0},
		{`DELETE FROM paper WHERE oid > ?`, 2, 0, 1, 0},
		{`UPDATE paper SET pages = 2 WHERE title = ?`, "x", 0, 0, 1},
	} {
		before := db.Stats()
		mustExec(t, db, c.sql, c.arg)
		after := db.Stats()
		point, ranges, scans := after.PointLookups-before.PointLookups, after.RangeScans-before.RangeScans, after.FullScans-before.FullScans
		if point != c.point || ranges != c.ranges || scans != c.scans {
			t.Errorf("%s: %d point lookups, %d range scans, %d full scans; want %d, %d, %d",
				c.sql, point, ranges, scans, c.point, c.ranges, c.scans)
		}
	}
	if got := rowsExact(mustQuery(t, db, `SELECT oid, pages FROM paper ORDER BY oid`)); got != "1,30\n2,1\n" {
		t.Fatalf("after the writes: %q", got)
	}
}

func TestDeleteThenReinsertKeepsIndexesConsistent(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `DELETE FROM paper WHERE issue_oid = 1`)
	mustExec(t, db, `INSERT INTO paper (title, pages, issue_oid) VALUES ('New One', 10, 1)`)
	rows := mustQuery(t, db, `SELECT title FROM paper WHERE issue_oid = ?`, 1)
	if rows.Len() != 1 || rows.Data[0][0].Value() != "New One" {
		t.Fatalf("got %v", rows.Data)
	}
}

func TestPrimaryKeyDuplicateRejected(t *testing.T) {
	db := testDB(t)
	_, err := db.Exec(`INSERT INTO volume (oid, title) VALUES (1, 'dup')`)
	if err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("err = %v", err)
	}
}

func TestNotNullRejected(t *testing.T) {
	db := testDB(t)
	_, err := db.Exec(`INSERT INTO volume (title, year) VALUES (NULL, 2002)`)
	if err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Fatalf("err = %v", err)
	}
}

func TestUniqueConstraint(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE u (oid INTEGER PRIMARY KEY AUTOINCREMENT, email TEXT UNIQUE)`)
	mustExec(t, db, `INSERT INTO u (email) VALUES ('a@x')`)
	if _, err := db.Exec(`INSERT INTO u (email) VALUES ('a@x')`); err == nil {
		t.Fatal("duplicate unique value accepted")
	}
	// Unique lookups also serve as an index.
	rows := mustQuery(t, db, `SELECT oid FROM u WHERE email = 'a@x'`)
	if rows.Len() != 1 {
		t.Fatalf("got %v", rows.Data)
	}
}

func TestForeignKeyEnforced(t *testing.T) {
	db := testDB(t)
	_, err := db.Exec(`INSERT INTO issue (number, volume_oid) VALUES (1, 99)`)
	if err == nil || !strings.Contains(err.Error(), "foreign key violation") {
		t.Fatalf("err = %v", err)
	}
	// NULL foreign keys are allowed.
	mustExec(t, db, `INSERT INTO issue (number, volume_oid) VALUES (1, NULL)`)
}

// TestIsNull: NULL equals nothing, itself included, so a comparison
// never selects a NULL; IS [NOT] NULL is refused.
func TestIsNull(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `INSERT INTO issue (number, volume_oid) VALUES (7, NULL)`)
	for _, sql := range []string{
		`SELECT number FROM issue WHERE volume_oid = NULL`,
		`SELECT number FROM issue WHERE volume_oid <> 1 AND volume_oid <> 2`,
	} {
		if rows := mustQuery(t, db, sql); rows.Len() != 0 {
			t.Errorf("%s: got %v", sql, rows.Data)
		}
	}
	mustRefuse(t, db, `SELECT number FROM issue WHERE volume_oid IS NULL`, "IS")
	mustRefuse(t, db, `SELECT COUNT(*) FROM issue WHERE volume_oid IS NOT NULL`, "IS")
}

func TestParamCountMismatch(t *testing.T) {
	db := testDB(t)
	if _, err := db.Query(`SELECT * FROM volume WHERE oid = ?`); err == nil {
		t.Fatal("missing parameter accepted")
	}
	if _, err := db.Query(`SELECT * FROM volume`, 1); err == nil {
		t.Fatal("extra parameter accepted")
	}
}

func TestSyntaxErrors(t *testing.T) {
	db := testDB(t)
	bad := []string{
		`SELEC * FROM volume`,
		`SELECT * FROM`,
		`SELECT * FROM volume WHERE`,
		`INSERT INTO volume (title) VALUES ('a', 'b')`,
		`CREATE TABLE t (x BLOBBY)`,
		`SELECT * FROM volume; SELECT 1 FROM volume`,
	}
	for _, s := range bad {
		if _, err := db.Query(s); err == nil {
			if _, err2 := db.Exec(s); err2 == nil {
				t.Errorf("statement %q accepted", s)
			}
		}
	}
}

// A number must end at a non-identifier character: "1AND" is not the
// number 1 and the keyword AND.
func TestLexNumberBoundary(t *testing.T) {
	for _, c := range []struct {
		sql string
		at  int // byte offset the error must name; -1 = must lex
	}{
		{`SELECT 00FROM emp`, 9},
		{`SELECT 0 FROM emp WHERE dept_oid=1AND salary<0`, 34},
		{`SELECT 1.5x FROM emp`, 10},
		{`SELECT 1e5 FROM emp`, 8},
		{`SELECT 7_ FROM emp`, 8},
		{`SELECT 1 FROM emp WHERE oid=1 AND salary<20`, -1},
		{`SELECT t1.oid, 1.5, 2*3, (4)FROM t1 WHERE oid IN (1,2)`, -1},
		{`SELECT 1-- trailing comment`, -1},
	} {
		_, err := lex(c.sql)
		switch {
		case c.at < 0 && err != nil:
			t.Errorf("%q: %v", c.sql, err)
		case c.at >= 0 && err == nil:
			t.Errorf("%q lexed", c.sql)
		case c.at >= 0 && !strings.HasSuffix(err.Error(), fmt.Sprintf(" at %d", c.at)):
			t.Errorf("%q: error %q does not point at offset %d", c.sql, err, c.at)
		}
	}
}

func TestUnknownTableAndColumn(t *testing.T) {
	db := testDB(t)
	if _, err := db.Query(`SELECT * FROM nothere`); err == nil {
		t.Fatal("unknown table accepted")
	}
	if _, err := db.Query(`SELECT nope FROM volume`); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestCreateTableIfNotExists(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE IF NOT EXISTS volume (oid INTEGER PRIMARY KEY)`)
	if _, err := db.Exec(`CREATE TABLE volume (oid INTEGER PRIMARY KEY)`); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestStringEscapes(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `INSERT INTO volume (title) VALUES ('O''Reilly')`)
	rows := mustQuery(t, db, `SELECT title FROM volume WHERE title LIKE 'O''%'`)
	if rows.Len() != 1 || rows.Data[0][0].Value() != "O'Reilly" {
		t.Fatalf("got %v", rows.Data)
	}
}

// TestArithmeticInProjection: a signed number is a literal; arithmetic is
// refused.
func TestArithmeticInProjection(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(t, db, `SELECT -1, -2.5, pages FROM paper WHERE oid = 1`)
	if got := boxed(rows)[0]; got[0] != int64(-1) || got[1] != -2.5 || got[2] != int64(30) {
		t.Fatalf("got %v", got)
	}
	mustRefuse(t, db, `SELECT pages * 2 + 1 FROM paper WHERE oid = 1`, "*")
	mustRefuse(t, db, `SELECT pages / 0 FROM paper`, "/")
	mustRefuse(t, db, `SELECT - pages FROM paper`, "-")
}

func TestQueryRow(t *testing.T) {
	db := testDB(t)
	m, err := db.QueryRow(`SELECT title, year FROM volume WHERE oid = ?`, 2)
	if err != nil || m == nil {
		t.Fatalf("m=%v err=%v", m, err)
	}
	if m["title"] != "TODS 26" {
		t.Fatalf("m = %v", m)
	}
	m, err = db.QueryRow(`SELECT title FROM volume WHERE oid = 99`)
	if err != nil || m != nil {
		t.Fatalf("expected nil map, got %v err %v", m, err)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := testDB(t)
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for i := 0; i < 20; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := db.Query(`SELECT COUNT(*) FROM paper`); err != nil {
				errs <- err
			}
		}()
		go func(i int) {
			defer wg.Done()
			if _, err := db.Exec(`INSERT INTO volume (title, year) VALUES (?, ?)`, fmt.Sprintf("v%d", i), 2000+i); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	n, _ := db.RowCount("volume")
	if n != 22 {
		t.Fatalf("volume count = %d", n)
	}
}

// Property: LIKE with a pattern built only from literals and % behaves as
// substring containment when the pattern is %s%.
func TestLikeContainmentProperty(t *testing.T) {
	f := func(hay, needle string) bool {
		clean := func(s string) string {
			return strings.Map(func(r rune) rune {
				if r == '%' || r == '_' || r == '\'' {
					return 'x'
				}
				if r < 32 || r > 126 {
					return 'y'
				}
				return r
			}, s)
		}
		h, n := clean(hay), clean(needle)
		got := likeMatch(h, "%"+n+"%")
		want := strings.Contains(strings.ToLower(h), strings.ToLower(n))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any set of inserted values, COUNT(*) equals the number of
// inserts minus deletes.
func TestCountInvariantProperty(t *testing.T) {
	f := func(vals []int16) bool {
		db := Open()
		if _, err := db.Exec(`CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)`); err != nil {
			return false
		}
		for _, v := range vals {
			if _, err := db.Exec(`INSERT INTO t (v) VALUES (?)`, int64(v)); err != nil {
				return false
			}
		}
		res, err := db.Exec(`DELETE FROM t WHERE v < 0`)
		if err != nil {
			return false
		}
		rows, err := db.Query(`SELECT COUNT(*) FROM t`)
		if err != nil {
			return false
		}
		return rows.Data[0][0].Value() == int64(len(vals)-res.RowsAffected)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: index-assisted equality lookups agree with full scans.
func TestIndexScanEquivalenceProperty(t *testing.T) {
	f := func(vals []uint8, probe uint8) bool {
		indexed := Open()
		plain := Open()
		for _, db := range []*DB{indexed, plain} {
			if _, err := db.Exec(`CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER)`); err != nil {
				return false
			}
		}
		if _, err := indexed.Exec(`CREATE INDEX it ON t(v)`); err != nil {
			return false
		}
		for _, v := range vals {
			for _, db := range []*DB{indexed, plain} {
				if _, err := db.Exec(`INSERT INTO t (v) VALUES (?)`, int64(v)); err != nil {
					return false
				}
			}
		}
		a, err1 := indexed.Query(`SELECT COUNT(*) FROM t WHERE v = ?`, int64(probe))
		b, err2 := plain.Query(`SELECT COUNT(*) FROM t WHERE v = ?`, int64(probe))
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Data[0][0].Value() == b.Data[0][0].Value()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestValueCoercions(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (i INTEGER, r REAL, s TEXT, b BOOLEAN)`)
	mustExec(t, db, `INSERT INTO t (i, r, s, b) VALUES (?, ?, ?, ?)`, 5, 1.5, "x", true)
	mustExec(t, db, `INSERT INTO t (i, r, s, b) VALUES (?, ?, ?, ?)`, int32(6), float32(2.5), []byte("y"), false)
	rows := mustQuery(t, db, `SELECT i, r, s, b FROM t ORDER BY i`)
	if rows.Data[0][0].Value() != int64(5) || rows.Data[1][0].Value() != int64(6) {
		t.Fatalf("ints: %v", rows.Data)
	}
	if rows.Data[1][2].Value() != "y" {
		t.Fatalf("text: %v", rows.Data)
	}
	if rows.Data[0][3].Value() != true || rows.Data[1][3].Value() != false {
		t.Fatalf("bools: %v", rows.Data)
	}
}

func TestBoolAndIntComparisons(t *testing.T) {
	db := Open()
	mustExec(t, db, `CREATE TABLE t (b BOOLEAN)`)
	mustExec(t, db, `INSERT INTO t (b) VALUES (TRUE), (FALSE), (TRUE)`)
	rows := mustQuery(t, db, `SELECT COUNT(*) FROM t WHERE b = TRUE`)
	if rows.Data[0][0].Value() != int64(2) {
		t.Fatalf("got %v", rows.Data)
	}
}

func TestStarWithJoinProjectsAllFrames(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(t, db, `SELECT * FROM issue i JOIN volume v ON v.oid = i.volume_oid WHERE i.oid = 1`)
	// issue has 3 columns, volume has 3.
	if len(rows.Columns) != 6 {
		t.Fatalf("columns = %v", rows.Columns)
	}
}

func TestQualifiedStar(t *testing.T) {
	db := testDB(t)
	rows := mustQuery(t, db, `SELECT v.* FROM issue i JOIN volume v ON v.oid = i.volume_oid WHERE i.oid = 1`)
	if len(rows.Columns) != 3 {
		t.Fatalf("columns = %v", rows.Columns)
	}
}

func TestAmbiguousColumnRejected(t *testing.T) {
	db := testDB(t)
	if _, err := db.Query(`SELECT oid FROM issue i JOIN volume v ON v.oid = i.volume_oid`); err == nil {
		t.Fatal("ambiguous column accepted")
	}
}

func TestCoalesceAndSubstr(t *testing.T) {
	db := testDB(t)
	mustRefuse(t, db, `SELECT COALESCE(NULL, 'fallback') FROM volume`, "COALESCE")
	mustRefuse(t, db, `SELECT SUBSTR(title, 1, 4) FROM volume`, "SUBSTR")
}
