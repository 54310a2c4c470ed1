package rdb

import (
	"sort"
	"strings"
	"sync"
	"testing"
)

// The differential suite runs every corpus query through both the
// compiled plan (Query) and the tree-walking oracle (queryOracle,
// oracle_test.go) and demands identical results: exact row sequence
// when the SQL has an ORDER BY, multiset equality otherwise. The plan
// defines SELECT; the oracle is the second opinion written the obvious
// way, and a divergence is a bug in one of the two.

func diffFixture(t testing.TB) *DB {
	t.Helper()
	return diffSeed(t, Open())
}

var diffSchema = []string{
	`CREATE TABLE dept (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL, budget INTEGER)`,
	`CREATE TABLE emp (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT NOT NULL, salary INTEGER, bonus INTEGER, dept_oid INTEGER)`,
	`CREATE INDEX ie ON emp(dept_oid)`,
	`CREATE INDEX ic ON emp(dept_oid, salary)`,
	`CREATE ORDERED INDEX io ON emp(name)`,
	`CREATE ORDERED INDEX ib ON emp(bonus)`,
}

var diffRows = []string{
	`INSERT INTO dept (name, budget) VALUES ('Eng', 100), ('Sales', 50), ('Empty', 10), ('Ops', NULL)`,
	`INSERT INTO emp (name, salary, bonus, dept_oid) VALUES
		('ann', 30, 5, 1), ('bob', 20, NULL, 1), ('cat', 25, 2, 2),
		('dan', 20, 1, NULL), ('eve', 20, 3, 2), ('fay', 45, NULL, 1),
		('gus', 25, 0, 3), ('hal', 30, 2, 1)`,
}

func diffSeed(t testing.TB, db *DB) *DB {
	t.Helper()
	mustExecAll(t, db, diffSchema)
	mustExecAll(t, db, diffRows)
	return db
}

func mustExecAll(t testing.TB, db *DB, stmts []string) {
	t.Helper()
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
}

// diffCorpus covers every physical operator the planner can emit:
// point lookups on each key kind, composite prefixes with and without a
// trailing range, ordered walks in both directions, all join strategies,
// COUNT(*), LIMIT pushdown, empty results under a star, and bad names no
// row ever reaches. It doubles as the fuzzer's seed corpus. Its entries
// in a form the grammar no longer has (refusedCorpus) stay, held to the
// same refusal from both engines.
var diffCorpus = []struct {
	sql  string
	args []Value
}{
	{`SELECT name, salary FROM emp WHERE oid = 1`, nil},
	{`SELECT name FROM emp WHERE oid = 99`, nil},
	{`SELECT name FROM emp WHERE dept_oid = 1 ORDER BY name`, nil},
	{`SELECT name FROM emp WHERE dept_oid = ? AND salary = ?`, []Value{1, 20}},
	{`SELECT name FROM emp WHERE dept_oid = 1 AND salary > 18 AND salary < 40`, nil},
	{`SELECT name FROM emp WHERE dept_oid = 2 AND salary >= 20 AND salary <= 25 ORDER BY salary`, nil},
	{`SELECT salary FROM emp WHERE dept_oid = 1 ORDER BY salary`, nil},
	{`SELECT salary FROM emp WHERE dept_oid = 1 ORDER BY salary DESC`, nil},
	{`SELECT name FROM emp ORDER BY name`, nil},
	{`SELECT name FROM emp ORDER BY name DESC`, nil},
	{`SELECT name FROM emp WHERE name > 'c' ORDER BY name`, nil},
	{`SELECT name FROM emp WHERE name >= 'bob' AND name < 'f' ORDER BY name DESC`, nil},
	{`SELECT name FROM emp WHERE bonus > 1 ORDER BY bonus`, nil},
	{`SELECT name FROM emp WHERE bonus IS NULL ORDER BY name`, nil},
	{`SELECT name, bonus FROM emp ORDER BY bonus, name`, nil},
	{`SELECT * FROM emp WHERE FALSE`, nil},
	{`SELECT * FROM emp LIMIT 0`, nil},
	{`SELECT * FROM emp ORDER BY oid LIMIT 3`, nil},
	{`SELECT e.* FROM emp e WHERE e.salary = 999`, nil},
	{`SELECT name FROM emp LIMIT 3`, nil},
	{`SELECT name FROM emp LIMIT 3 OFFSET 2`, nil},
	{`SELECT name FROM emp ORDER BY salary DESC, name LIMIT 4 OFFSET 1`, nil},
	{`SELECT DISTINCT salary FROM emp ORDER BY salary`, nil},
	{`SELECT DISTINCT dept_oid FROM emp`, nil},
	{`SELECT DISTINCT salary FROM emp LIMIT 2`, nil},
	{`SELECT e.name, d.name FROM emp e JOIN dept d ON d.oid = e.dept_oid ORDER BY e.name`, nil},
	{`SELECT e.name, d.name FROM emp e LEFT JOIN dept d ON d.oid = e.dept_oid ORDER BY e.name`, nil},
	{`SELECT d.name, e.name FROM dept d LEFT JOIN emp e ON e.dept_oid = d.oid ORDER BY d.name, e.name`, nil},
	{`SELECT a.name, b.name FROM emp a JOIN emp b ON b.dept_oid = a.dept_oid WHERE a.oid < b.oid ORDER BY a.name, b.name`, nil},
	{`SELECT e.name, d.name, m.name FROM emp e JOIN dept d ON d.oid = e.dept_oid JOIN emp m ON m.oid = e.oid ORDER BY e.name`, nil},
	{`SELECT e.name FROM emp e JOIN dept d ON d.budget > e.salary ORDER BY e.name`, nil},
	{`SELECT d.name, COUNT(e.oid), SUM(e.salary) FROM dept d LEFT JOIN emp e ON e.dept_oid = d.oid GROUP BY d.name ORDER BY d.name`, nil},
	{`SELECT dept_oid, COUNT(*) AS n FROM emp WHERE dept_oid IS NOT NULL GROUP BY dept_oid ORDER BY n DESC, dept_oid`, nil},
	{`SELECT dept_oid, AVG(salary) FROM emp GROUP BY dept_oid HAVING COUNT(*) > 1 ORDER BY dept_oid`, nil},
	{`SELECT COUNT(*), COUNT(bonus), MIN(salary), MAX(salary), SUM(bonus) FROM emp`, nil},
	{`SELECT COUNT(*) FROM emp WHERE dept_oid = 1 AND salary = 30`, nil},
	{`SELECT name FROM emp WHERE salary IN (20, 25) ORDER BY name`, nil},
	{`SELECT name FROM emp WHERE salary NOT IN (?, ?) ORDER BY name`, []Value{20, 30}},
	{`SELECT name FROM emp WHERE salary BETWEEN 21 AND 29 ORDER BY name`, nil},
	{`SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY name`, nil},
	{`SELECT name FROM emp WHERE NOT name LIKE '_a%' ORDER BY name`, nil},
	{`SELECT name FROM emp WHERE salary = 30 OR salary = 25 AND bonus = 2 ORDER BY name`, nil},
	{`SELECT salary + bonus * 2, name + '!' FROM emp ORDER BY oid`, nil},
	{`SELECT COALESCE(bonus, -1) FROM emp ORDER BY oid`, nil},
	{`SELECT UPPER(name) FROM emp WHERE LOWER(name) = 'ann'`, nil},
	{`SELECT salary * ? FROM emp WHERE oid = ?`, []Value{2, 1}},
	{`SELECT name AS n FROM emp ORDER BY n DESC LIMIT 2`, nil},
	{`SELECT salary * 2 AS twice, name FROM emp ORDER BY twice, name`, nil},
	{`SELECT e.name, d.name AS dept FROM emp e JOIN dept d ON d.oid = e.dept_oid ORDER BY dept, e.name`, nil},
	{`SELECT DISTINCT salary AS s FROM emp ORDER BY s DESC`, nil},
	{`SELECT ghost FROM emp`, nil},
	{`SELECT name FROM emp WHERE ghost = 1`, nil},
	{`SELECT e.name FROM emp e ORDER BY d.name`, nil},
	// The PR 14 fuzz find, spaced: refused at its arithmetic.
	{`SELECT 00 FROM emp WHERE dept_oid=1 AND A*0 AND sAlArY<0`, nil},
	{`SELECT ghost FROM emp WHERE oid = 99`, nil},
	{`SELECT name FROM emp WHERE FALSE AND ghost = 1`, nil},
	// The primary key as an order: walks in both directions, windows that
	// start inside, at and past the end, with and without a residual WHERE.
	{`SELECT name FROM emp ORDER BY oid`, nil},
	{`SELECT name FROM emp ORDER BY oid DESC`, nil},
	{`SELECT e.oid, e.name FROM emp e ORDER BY e.oid LIMIT 3 OFFSET 2`, nil},
	{`SELECT e.oid, e.name FROM emp e ORDER BY e.oid DESC LIMIT 3 OFFSET 2`, nil},
	{`SELECT name FROM emp ORDER BY oid LIMIT 3 OFFSET 7`, nil},
	{`SELECT name FROM emp ORDER BY oid LIMIT 3 OFFSET 8`, nil},
	{`SELECT name FROM emp ORDER BY oid DESC LIMIT 3 OFFSET 99`, nil},
	{`SELECT name FROM emp ORDER BY oid LIMIT 0`, nil},
	{`SELECT name FROM emp ORDER BY oid LIMIT 0 OFFSET 3`, nil},
	{`SELECT name FROM emp ORDER BY oid LIMIT ? OFFSET ?`, []Value{2, 5}},
	{`SELECT name FROM emp ORDER BY oid DESC LIMIT ? OFFSET ?`, []Value{4, 6}},
	{`SELECT name FROM emp WHERE name LIKE '%a%' ORDER BY oid LIMIT 2 OFFSET 1`, nil},
	{`SELECT name FROM emp WHERE salary > 20 ORDER BY oid DESC LIMIT ? OFFSET ?`, []Value{2, 1}},
	{`SELECT name FROM emp WHERE dept_oid = 1 ORDER BY oid LIMIT 2 OFFSET 1`, nil},
	{`SELECT name FROM emp WHERE oid > 2 AND oid <= 6 ORDER BY oid DESC`, nil},
	{`SELECT name FROM emp WHERE oid >= ? ORDER BY oid LIMIT 2`, []Value{7}},
	{`SELECT name FROM emp WHERE oid < 4`, nil},
	{`SELECT name FROM emp LIMIT 2 OFFSET 7`, nil},
	// The live-row count as an answer, and every COUNT(*) that is not it.
	{`SELECT COUNT(*) FROM emp`, nil},
	{`SELECT COUNT(*) AS n, COUNT(*) FROM emp e`, nil},
	{`SELECT COUNT(*) FROM emp LIMIT 0`, nil},
	{`SELECT COUNT(*) FROM emp OFFSET 1`, nil},
	{`SELECT COUNT(*) FROM emp WHERE name LIKE ?`, []Value{"%a%"}},
	{`SELECT COUNT(*) FROM emp WHERE salary > 99`, nil},
	{`SELECT COUNT(*) FROM emp e JOIN dept d ON d.oid = e.dept_oid`, nil},
	{`SELECT COUNT(*) FROM dept d LEFT JOIN emp e ON e.dept_oid = d.oid WHERE d.budget > 20`, nil},
	{`SELECT COUNT(*) FROM emp GROUP BY dept_oid`, nil},
	{`SELECT COUNT(*) AS n FROM emp WHERE salary < 40 GROUP BY dept_oid ORDER BY n DESC`, nil},
	{`SELECT COUNT(*) FROM emp HAVING COUNT(*) > 100`, nil},
	{`SELECT COUNT(*) + 1, COUNT(*) FROM emp`, nil},
	// What the SQL leaves open is settled by row id on every access path,
	// and a key finds what a scan would compare equal.
	{`SELECT name FROM emp WHERE dept_oid = 1 ORDER BY 0`, nil},
	{`SELECT name FROM emp WHERE bonus > 0 ORDER BY salary`, nil},
	{`SELECT name FROM emp WHERE bonus > 0 LIMIT 2`, nil},
	{`SELECT name FROM emp WHERE dept_oid = 1.0`, nil},
	{`SELECT name FROM emp WHERE oid = ?`, []Value{2.0}},
	// Aggregates over no rows, nested in other terms: refused.
	{`SELECT 1 + COUNT(*) FROM emp WHERE FALSE`, nil},
	{`SELECT 1, COUNT(*) FROM emp WHERE FALSE`, nil},
	{`SELECT COALESCE(MAX(salary), 0) FROM emp WHERE FALSE`, nil},
	{`SELECT name, SUM(bonus), COUNT(bonus) FROM emp WHERE salary > 99`, nil},
	{`SELECT COALESCE(MAX(bonus), 0), -COUNT(*) FROM emp WHERE dept_oid = 1`, nil},
	{`SELECT dept_oid, MIN(name), AVG(bonus) FROM emp GROUP BY dept_oid HAVING MAX(salary) - MIN(salary) > 0 ORDER BY dept_oid`, nil},
}

func rowsExact(r *Rows) string {
	var b strings.Builder
	for _, row := range r.Data {
		for j, v := range row {
			if j > 0 {
				b.WriteByte(',')
			}
			b.Write(v.Append(nil))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func rowsMultiset(r *Rows) string {
	lines := make([]string, 0, len(r.Data))
	for _, row := range r.Data {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = string(v.Append(nil))
		}
		lines = append(lines, strings.Join(cells, ","))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// compareEngines runs sql through both engines and reports any
// divergence. Both engines erroring counts as agreement only when the
// texts match too.
func compareEngines(t testing.TB, db *DB, sql string, args []Value) {
	t.Helper()
	got, gotErr := db.Query(sql, args...)
	want, wantErr := db.queryOracle(sql, args...)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s:\ncompiled err: %v\noracle err:   %v", sql, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s:\ncompiled err: %v\noracle err:   %v", sql, gotErr, wantErr)
		}
		return
	}
	if strings.Join(got.Columns, "\x00") != strings.Join(want.Columns, "\x00") {
		t.Fatalf("%s: columns differ:\ncompiled    %v\noracle      %v", sql, got.Columns, want.Columns)
	}
	if hasOrderBy(sql) {
		if rowsExact(got) != rowsExact(want) {
			t.Fatalf("%s: row sequence differs:\ncompiled:\n%s\noracle:\n%s", sql, rowsExact(got), rowsExact(want))
		}
	} else if rowsMultiset(got) != rowsMultiset(want) {
		t.Fatalf("%s: row multiset differs:\ncompiled:\n%s\noracle:\n%s", sql, rowsMultiset(got), rowsMultiset(want))
	}
}

func hasOrderBy(sql string) bool {
	return strings.Contains(strings.ToUpper(sql), "ORDER BY")
}

func TestDifferentialCompiledVsInterpreted(t *testing.T) {
	db := diffFixture(t)
	for _, c := range diffCorpus {
		c := c
		t.Run(c.sql, func(t *testing.T) {
			compareEngines(t, db, c.sql, c.args)
		})
	}
}

// compareDBs runs the same query on two databases built from the same
// statements and demands identical output (or identical errors) —
// exact sequence under ORDER BY, multiset equality otherwise.
func compareDBs(t testing.TB, label string, a, b *DB, sql string, args []Value) {
	t.Helper()
	got, gotErr := b.Query(sql, args...)
	want, wantErr := a.Query(sql, args...)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: %s:\n%s err: %v\nmemory err: %v", label, sql, label, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: %s:\n%s err: %v\nmemory err: %v", label, sql, label, gotErr, wantErr)
		}
		return
	}
	if strings.Join(got.Columns, "\x00") != strings.Join(want.Columns, "\x00") {
		t.Fatalf("%s: %s: columns differ: %v vs %v", label, sql, got.Columns, want.Columns)
	}
	if hasOrderBy(sql) {
		if rowsExact(got) != rowsExact(want) {
			t.Fatalf("%s: %s: row sequence differs:\n%s:\n%s\nmemory:\n%s", label, sql, label, rowsExact(got), rowsExact(want))
		}
	} else if rowsMultiset(got) != rowsMultiset(want) {
		t.Fatalf("%s: %s: row multiset differs:\n%s:\n%s\nmemory:\n%s", label, sql, label, rowsMultiset(got), rowsMultiset(want))
	}
}

// TestDifferentialDurableEngine runs the full corpus three ways on a
// durable-engine database: compiled vs oracle on the durable DB,
// durable vs in-memory byte-for-byte, and both again after a
// close/reopen recovery cycle. Compiled plans must execute unchanged
// on either engine.
func TestDifferentialDurableEngine(t *testing.T) {
	mem := diffFixture(t)
	dir := t.TempDir()
	dur, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	diffSeed(t, dur)
	for _, c := range diffCorpus {
		compareEngines(t, dur, c.sql, c.args)
		compareDBs(t, "durable", mem, dur, c.sql, c.args)
	}
	dur = reopen(t, dur, dir)
	defer dur.Close()
	for _, c := range diffCorpus {
		compareEngines(t, dur, c.sql, c.args)
		compareDBs(t, "recovered", mem, dur, c.sql, c.args)
	}
}

// TestDifferentialUnderMutation interleaves writes with queries so plans
// built against one table state are revalidated and re-executed against
// another — the cache-staleness path the pure corpus never exercises.
func TestDifferentialUnderMutation(t *testing.T) {
	db := diffFixture(t)
	probes := []string{
		`SELECT name FROM emp WHERE dept_oid = 1 ORDER BY salary`,
		`SELECT name FROM emp ORDER BY name DESC`,
		`SELECT COUNT(*) FROM emp WHERE salary > 21`,
	}
	for round := 0; round < 6; round++ {
		for _, sql := range probes {
			compareEngines(t, db, sql, nil)
		}
		if _, err := db.Exec(`INSERT INTO emp (name, salary, bonus, dept_oid) VALUES (?, ?, ?, ?)`,
			"w"+string(rune('a'+round)), 18+round*3, round, int64(1+round%3)); err != nil {
			t.Fatal(err)
		}
		if err := addTo(db, "emp", "salary", "oid", int64(round+1), 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Exec(`DELETE FROM emp WHERE bonus < 2`); err != nil {
		t.Fatal(err)
	}
	for _, sql := range probes {
		compareEngines(t, db, sql, nil)
	}
}

// TestDifferentialPKOrderUnderMutation keeps the sorted indexes honest
// through every way a key enters or leaves a table: explicit keys inserted
// out of order, deletes, key UPDATEs, a rolled-back transaction and DROP /
// re-CREATE — on an integer primary key (record ids are the keys), a text
// one (keys live in the "pk" image), and ORDERED indexes on nullable
// columns holding NULLs and duplicates. Every step is compared with the
// oracle, which scans and sorts; the paging engine is also compared with
// memory after a reopen, where the entries are rebuilt from the key scan
// and the images without decoding a row.
func TestDifferentialPKOrderUnderMutation(t *testing.T) {
	probes := []struct {
		sql  string
		args []Value
	}{
		{`SELECT id, v FROM k ORDER BY id`, nil},
		{`SELECT id FROM k ORDER BY id DESC LIMIT 3 OFFSET 1`, nil},
		{`SELECT id FROM k WHERE id > ? AND id < 20 ORDER BY id`, []Value{2}},
		{`SELECT COUNT(*) FROM k`, nil},
		{`SELECT name FROM named ORDER BY name DESC`, nil},
		{`SELECT name, v FROM named ORDER BY name LIMIT 2 OFFSET ?`, []Value{1}},
		{`SELECT name FROM named WHERE name >= 'm' ORDER BY name`, nil},
		{`SELECT COUNT(*) FROM named`, nil},
		// ORDERED indexes over nullable columns: ranges, equality and
		// walks in both directions through windows.
		{`SELECT id, n FROM k WHERE n > ? ORDER BY n`, []Value{1}},
		{`SELECT id, n FROM k WHERE n <= 2 ORDER BY n DESC`, nil},
		{`SELECT id FROM k WHERE n = ?`, []Value{2}},
		{`SELECT id, n FROM k ORDER BY n LIMIT 4 OFFSET ?`, []Value{1}},
		{`SELECT id, n FROM k ORDER BY n DESC LIMIT 3 OFFSET 2`, nil},
		{`SELECT name, v FROM named ORDER BY v DESC LIMIT ? OFFSET 1`, []Value{3}},
		{`SELECT name FROM named WHERE v >= 2 AND v < 6 ORDER BY v`, nil},
		{`SELECT name FROM named WHERE v = 1`, nil},
		// A bound the column cannot be compared with narrows nothing: the
		// rows reach the WHERE, which raises the error a scan raises.
		{`SELECT id FROM k WHERE id > 'x'`, nil},
		{`SELECT id FROM k WHERE n < 'x'`, nil},
	}
	create := []string{
		`CREATE TABLE k (id INTEGER PRIMARY KEY, v TEXT, n INTEGER)`,
		`CREATE ORDERED INDEX kn ON k(n)`,
		`CREATE TABLE named (name TEXT PRIMARY KEY, v INTEGER)`,
		`CREATE ORDERED INDEX nv ON named(v)`,
	}
	steps := [][]string{
		create,
		{`INSERT INTO k (id, v, n) VALUES (5, 'e', 2), (1, 'a', NULL), (9, 'i', 2), (3, 'c', 1), (7, 'g', NULL), (-2, 'z', 3)`,
			`INSERT INTO named (name, v) VALUES ('pear', 1), ('apple', NULL), ('zest', 3), ('mango', 1), ('fig', 5)`},
		{`DELETE FROM k WHERE id = 9`, `DELETE FROM k WHERE id = 1`, `DELETE FROM named WHERE name = 'mango'`},
		{`UPDATE k SET id = 4 WHERE id = 7`, `UPDATE k SET id = 30 WHERE id = 3`, `UPDATE named SET name = 'nut' WHERE name = 'apple'`,
			`UPDATE k SET n = NULL WHERE n = 3`, `UPDATE k SET n = 1 WHERE id = 5`, `UPDATE named SET v = NULL WHERE v = 5`},
		{`INSERT INTO k (id, v, n) VALUES (6, 'f', 1), (2, 'b', NULL)`, `INSERT INTO named (name, v) VALUES ('kiwi', 3)`},
		{`DROP TABLE k`, `DROP TABLE named`},
		create,
		{`INSERT INTO k (id, v, n) VALUES (8, 'h', 4), (2, 'b', NULL), (11, 'k', 4)`, `INSERT INTO named (name, v) VALUES ('b', 1), ('a', NULL)`},
	}
	rolledBack := []string{
		`INSERT INTO k (id, v, n) VALUES (0, 'ghost', 1)`,
		`DELETE FROM k WHERE id = 5`,
		`UPDATE k SET id = 100 WHERE id = 4`,
		`UPDATE k SET n = 7 WHERE id < 5`,
		`DELETE FROM named WHERE name = 'pear'`,
		`INSERT INTO named (name, v) VALUES ('aaa', 9)`,
	}
	check := func(t *testing.T, db *DB) {
		t.Helper()
		for _, p := range probes {
			compareEngines(t, db, p.sql, p.args)
		}
	}
	run := func(t *testing.T, db *DB) {
		t.Helper()
		for i, step := range steps {
			mustExecAll(t, db, step)
			if i == len(steps)-3 { // the tables are dropped: nothing to probe
				continue
			}
			check(t, db)
			if i == 3 {
				tx := db.Begin()
				for _, s := range rolledBack {
					if _, err := tx.Exec(s); err != nil {
						t.Fatalf("%s: %v", s, err)
					}
				}
				if err := tx.Rollback(); err != nil {
					t.Fatal(err)
				}
				check(t, db)
				if got := rowsExact(mustQuery(t, db, `SELECT id FROM k ORDER BY id`)); got != "-2\n4\n5\n30\n" {
					t.Fatalf("after key updates and a rollback, ORDER BY id gave %q", got)
				}
			}
		}
	}
	mem := Open()
	run(t, mem)
	dir := t.TempDir()
	dur := openPaging(t, dir)
	run(t, dur)
	dur = reopenPaging(t, dur, dir)
	defer dur.Close()
	check(t, dur)
	for _, p := range probes {
		compareDBs(t, "paging-recovered", mem, dur, p.sql, p.args)
	}
}

// TestRowOrderIndependentOfAccessPath holds the plan to the rule that
// rows come out in row-id order whatever the access path: the same
// statements, on the same rows with and without the schema's indexes, must
// return the same sequence even where the SQL leaves it open — ties under
// ORDER BY, a LIMIT with no order — and a key
// must find the rows a scan would compare equal (1 = 1.0). The writes
// re-file old rows in hash buckets (UPDATE, rollback) before the second
// pass. The oracle is compared too.
func TestRowOrderIndependentOfAccessPath(t *testing.T) {
	probes := []string{
		`SELECT name FROM emp WHERE dept_oid = 1 ORDER BY 0`,
		`SELECT name FROM emp WHERE dept_oid = 1 AND salary > 10 ORDER BY bonus`,
		`SELECT name FROM emp WHERE bonus > 0 ORDER BY salary`,
		`SELECT name FROM emp WHERE bonus >= 0 ORDER BY salary DESC LIMIT 3 OFFSET 1`,
		`SELECT name FROM emp WHERE bonus > 0 LIMIT 2`,
		`SELECT name FROM emp WHERE dept_oid = 2 LIMIT 1 OFFSET 1`,
		`SELECT name FROM emp WHERE name > 'b' AND bonus < 5`,
		`SELECT dept_oid, name FROM emp WHERE bonus >= 0 LIMIT 3`,
		`SELECT COUNT(*) FROM emp WHERE dept_oid = 1 AND bonus >= 0`,
		`SELECT d.name, e.name FROM dept d JOIN emp e ON e.dept_oid = d.oid ORDER BY d.budget`,
		`SELECT d.name, e.name FROM dept d JOIN emp e ON e.dept_oid = d.oid WHERE d.oid < 3.5`,
		`SELECT name FROM emp WHERE dept_oid = 1.0`,
		`SELECT name FROM emp WHERE oid = 2.0`,
		`SELECT name FROM emp WHERE oid = 2.5`,
		`SELECT name FROM emp WHERE 3.0 = oid AND dept_oid = 2.`,
	}
	indexed, bare := diffFixture(t), Open()
	for _, s := range diffSchema {
		if strings.HasPrefix(s, "CREATE TABLE") {
			mustExecAll(t, bare, []string{s})
		}
	}
	mustExecAll(t, bare, diffRows)
	check := func() {
		t.Helper()
		for _, sql := range probes {
			compareEngines(t, indexed, sql, nil)
			got, want := mustQuery(t, indexed, sql), mustQuery(t, bare, sql)
			if rowsExact(got) != rowsExact(want) {
				t.Fatalf("%s: with indexes:\n%s\nwithout:\n%s", sql, rowsExact(got), rowsExact(want))
			}
		}
	}
	check()
	for _, db := range []*DB{indexed, bare} {
		mustExecAll(t, db, []string{
			`UPDATE emp SET dept_oid = 2 WHERE oid = 1`,
			`UPDATE emp SET dept_oid = 1, bonus = 4 WHERE oid = 5`,
			`UPDATE emp SET dept_oid = 1 WHERE oid = 1`,
		})
		tx := db.Begin()
		for _, s := range []string{`DELETE FROM emp WHERE oid = 2`, `UPDATE emp SET dept_oid = 3 WHERE oid = 6`} {
			if _, err := tx.Exec(s); err != nil {
				t.Fatalf("%s: %v", s, err)
			}
		}
		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	check()
}

// dmlCorpus covers every access path an UPDATE or DELETE can take —
// point lookups, a hash bucket the statement moves its rows out of, a
// composite prefix with a range, ordered ranges on the column being
// written, the primary key as a range, a scan — plus NULL bounds, value
// errors and a duplicate key midway through (the rows before it stay
// written in auto-commit), and bad names no row reaches. It doubles as
// the fuzzer's DML seeds.
var dmlCorpus = []struct {
	sql  string
	args []Value
}{
	{`UPDATE emp SET bonus = 9 WHERE oid = 3`, nil},
	{`DELETE FROM emp WHERE oid = ?`, []Value{99}},
	{`DELETE FROM emp WHERE oid = 2.0`, nil},
	{`UPDATE emp SET dept_oid = 2 WHERE dept_oid = 1`, nil},
	{`UPDATE emp SET salary = salary + 1 WHERE dept_oid = ?`, []Value{1}},
	{`DELETE FROM emp WHERE dept_oid = ? AND salary = ?`, []Value{1, 20}},
	{`UPDATE emp SET salary = salary * 2 WHERE dept_oid = 1 AND salary > 20`, nil},
	{`UPDATE emp SET bonus = bonus + 1 WHERE bonus >= 2`, nil},
	{`DELETE FROM emp WHERE name > 'c' AND name < 'g'`, nil},
	{`DELETE FROM emp WHERE oid > ?`, []Value{5}},
	{`UPDATE emp SET name = name + '!', bonus = oid WHERE name LIKE '%a%'`, nil},
	{`UPDATE emp SET bonus = 0 WHERE bonus > ?`, []Value{nil}},
	{`DELETE FROM emp WHERE oid >= ? AND oid < 4`, []Value{nil}},
	{`UPDATE emp SET oid = 11 - oid WHERE oid > 1`, nil},
	{`UPDATE emp SET salary = salary / (bonus - 2) WHERE dept_oid = 1`, nil},
	{`UPDATE emp SET name = NULL WHERE oid = 4`, nil},
	{`UPDATE dept SET budget = budget - 5 WHERE budget >= 50`, nil},
	{`DELETE FROM emp`, nil},
	{`DELETE FROM emp WHERE ghost = 1 AND oid = 999`, nil},
	{`UPDATE emp SET bonus = ghost WHERE oid = 999`, nil},
	{`UPDATE emp SET ghost = 1 WHERE FALSE`, nil},
}

// compareDML runs one write through Exec on a fresh fixture and through
// the oracle on another, and demands the same outcome: rows affected,
// error text, and both tables' rows afterwards, partial effects of a
// statement that failed midway included. It reports false, comparing
// nothing further, when the two differ only by value errors
// (tolerableDivergence): an index key finds the compiled plan its rows
// without comparing the others, where the oracle compares every row. The
// fuzzer accepts that; the seeded cases do not.
func compareDML(t *testing.T, sql string, args []Value) bool {
	t.Helper()
	got, want := diffFixture(t), diffFixture(t)
	gotRes, gotErr := got.Exec(sql, args...)
	wantRes, wantErr := want.execOracle(sql, args...)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		if (gotErr == nil || tolerableDivergence(gotErr)) && (wantErr == nil || tolerableDivergence(wantErr)) {
			return false
		}
		t.Fatalf("%q:\nExec err:   %v\noracle err: %v", sql, gotErr, wantErr)
	}
	if gotRes.RowsAffected != wantRes.RowsAffected {
		t.Fatalf("%q: Exec affected %d rows, the oracle %d", sql, gotRes.RowsAffected, wantRes.RowsAffected)
	}
	for _, q := range []string{`SELECT * FROM emp ORDER BY oid`, `SELECT * FROM dept ORDER BY oid`} {
		if g, w := rowsExact(mustQuery(t, got, q)), rowsExact(mustQuery(t, want, q)); g != w {
			t.Fatalf("%q: then %s:\nExec:\n%s\noracle:\n%s", sql, q, g, w)
		}
	}
	return true
}

func TestDifferentialDML(t *testing.T) {
	for _, c := range dmlCorpus {
		t.Run(c.sql, func(t *testing.T) {
			if !compareDML(t, c.sql, c.args) {
				t.Fatal("Exec and the oracle differ by a value error")
			}
		})
	}
}

var (
	fuzzDBOnce sync.Once
	fuzzDB     *DB
)

// FuzzPlannerVsInterp feeds arbitrary SQL through both engines: a
// SELECT against one shared fixture, an UPDATE or DELETE through
// compareDML on fresh ones. SQL the parser refuses must be refused by
// Query with the same error; other statements are skipped; value errors
// that only one engine hits (tolerableDivergence) are tolerated,
// everything else must agree exactly.
func FuzzPlannerVsInterp(f *testing.F) {
	for _, c := range diffCorpus {
		f.Add(c.sql)
	}
	for _, c := range dmlCorpus {
		f.Add(c.sql)
	}
	f.Add(`SELECT name FROM emp WHERE salary > 'x'`)
	f.Add(`SELECT 1 / (bonus - bonus) FROM emp LIMIT 1`)
	f.Fuzz(func(t *testing.T, sql string) {
		fuzzDBOnce.Do(func() { fuzzDB = diffFixture(t) })
		db := fuzzDB
		st, err := ParseStatement(sql)
		if err != nil {
			if _, qErr := db.Query(sql); qErr == nil || qErr.Error() != err.Error() {
				t.Fatalf("%q: ParseStatement refuses with %v, Query with %v", sql, err, qErr)
			}
			return
		}
		args := make([]Value, *st.params())
		for i := range args {
			args[i] = int64(i + 1)
		}
		switch st.(type) {
		case *UpdateStmt, *DeleteStmt:
			if !compareDML(t, sql, args) {
				t.Skip()
			}
			return
		case *SelectStmt:
		default:
			t.Skip()
		}
		got, gotErr := db.Query(sql, args...)
		want, wantErr := db.queryOracle(sql, args...)
		if gotErr != nil && wantErr != nil {
			return
		}
		if (gotErr != nil) != (wantErr != nil) {
			err := gotErr
			if err == nil {
				err = wantErr
			}
			if tolerableDivergence(err) {
				t.Skip()
			}
			t.Fatalf("%q:\ncompiled err: %v\noracle err:   %v", sql, gotErr, wantErr)
		}
		if strings.Join(got.Columns, "\x00") != strings.Join(want.Columns, "\x00") {
			t.Fatalf("%q: columns differ: %v vs %v", sql, got.Columns, want.Columns)
		}
		if hasOrderBy(sql) {
			if rowsExact(got) != rowsExact(want) {
				t.Fatalf("%q: row sequence differs:\ncompiled:\n%s\noracle:\n%s", sql, rowsExact(got), rowsExact(want))
			}
		} else if rowsMultiset(got) != rowsMultiset(want) {
			t.Fatalf("%q: row multiset differs:\ncompiled:\n%s\noracle:\n%s", sql, rowsMultiset(got), rowsMultiset(want))
		}
	})
}

// tolerableDivergence reports whether a one-sided error is the one
// accepted kind: a value error (never a name error), which depends on
// which rows and keys an engine evaluates. The compiled plan stops at a
// pushed-down LIMIT where the oracle materializes every row first, and
// an index key finds its rows without comparing the others, where the
// oracle compares every row.
func tolerableDivergence(err error) bool {
	s := err.Error()
	for _, sub := range []string{"cannot compare", "LIKE requires"} {
		if strings.Contains(s, sub) {
			return true
		}
	}
	return false
}

// boxed is r's rows as the public API boxes them.
func boxed(r *Rows) [][]Value {
	out := make([][]Value, len(r.Data))
	for i, row := range r.Data {
		out[i] = boxAll(row)
	}
	return out
}
