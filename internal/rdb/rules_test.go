package rdb

import (
	"strings"
	"testing"
)

// The three rules that make the compiled plan the definition of SQL here
// (DESIGN.md "The oracle"), each pinned where it used to bend: on
// results no row reaches.

// R1: a bad name is the same plan-time error from every entry point,
// whether the tables hold rows or not.
func TestNameErrorsAreDataIndependent(t *testing.T) {
	cases := []struct{ sql, want string }{
		// The PR 14 fuzz find: the composite eq-prefix + range yields no
		// row, so no row ever evaluated ghost.
		{`SELECT 0 FROM emp WHERE dept_oid=1 AND ghost AND salary<0`, `rdb: unknown column "ghost"`},
		{`SELECT ghost FROM emp WHERE oid = 99`, `rdb: unknown column "ghost"`},
		{`SELECT name FROM emp WHERE FALSE AND ghost = 1`, `rdb: unknown column "ghost"`},
		{`SELECT name FROM emp WHERE oid = 99 AND ghost = 1`, `rdb: unknown column "ghost"`},
		{`SELECT name FROM emp e WHERE x.oid = 1`, `rdb: unknown table or alias "x"`},
		{`SELECT e.ghost FROM emp e WHERE e.oid = 99`, `rdb: no column "ghost" in "e"`},
		{`SELECT x.* FROM emp e`, `rdb: unknown table or alias "x"`},
		{`SELECT oid FROM emp e JOIN dept d ON d.oid = e.dept_oid WHERE e.oid = 99`, `rdb: ambiguous column "oid"`},
		{`SELECT e.name FROM emp e JOIN dept d ON d.oid = z.dept_oid`, `rdb: unknown table or alias "z"`},
		{`SELECT e.name FROM emp e JOIN dept d ON d.oid = m.oid JOIN emp m ON m.oid = e.oid`, `rdb: unknown table or alias "m"`},
		{`SELECT COUNT(*) FROM emp WHERE oid = 99 AND ghost = 1`, `rdb: unknown column "ghost"`},
		{`SELECT COUNT(*) AS n FROM emp e JOIN dept d ON d.oid = e.ghost`, `rdb: no column "ghost" in "e"`},
		{`SELECT COUNT(*) AS n FROM emp ORDER BY ghost`, `rdb: unknown column "ghost"`},
		{`SELECT name FROM emp ORDER BY ghost`, `rdb: unknown column "ghost"`},
		{`SELECT name FROM emp e ORDER BY e.ghost`, `rdb: no column "ghost" in "e"`},
		{`SELECT e.name FROM emp e ORDER BY d.name`, `rdb: unknown table or alias "d"`},
		{`SELECT COUNT(*) FROM emp ORDER BY name`, `rdb: ORDER BY references unknown output column "name"`},
		{`SELECT COUNT(*) AS n FROM emp ORDER BY 1`, `rdb: ORDER BY of a COUNT(*) must name its output column`},
		{`SELECT name FROM emp LIMIT ghost`, `rdb: unknown column "ghost"`},
	}
	empty := Open()
	mustExecAll(t, empty, diffSchema)
	for label, db := range map[string]*DB{"seeded": diffFixture(t), "empty": empty} {
		for _, c := range cases {
			_, qErr := db.Query(c.sql)
			_, eErr := db.Explain(c.sql)
			_, oErr := db.queryOracle(c.sql)
			for entry, err := range map[string]error{"Query": qErr, "Explain": eErr, "oracle": oErr} {
				if err == nil || err.Error() != c.want {
					t.Errorf("%s tables, %s(%s): got %v, want %s", label, entry, c.sql, err, c.want)
				}
			}
		}
	}
}

// R2: the header is a function of statement and schema; whether a row
// matches changes Data only.
func TestHeaderIndependentOfRowCount(t *testing.T) {
	db := diffFixture(t)
	emp := []string{"oid", "name", "salary", "bonus", "dept_oid"}
	dept := []string{"oid", "name", "budget"}
	cat := func(parts ...[]string) (out []string) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	for _, c := range []struct {
		sql  string
		want []string
	}{
		{`SELECT * FROM emp WHERE oid = ?`, emp},
		{`SELECT e.* FROM emp e WHERE e.oid = ?`, emp},
		{`SELECT * FROM emp e JOIN dept d ON d.oid = e.dept_oid WHERE e.oid = ?`, cat(emp, dept)},
		{`SELECT d.name AS dept, e.*, 1 FROM emp e JOIN dept d ON d.oid = e.dept_oid WHERE e.oid = ?`, cat([]string{"dept"}, emp, []string{"expr"})},
	} {
		for oid, wantRows := range map[int64]int{1: 1, 99: 0} {
			for engine, query := range map[string]func(string, ...Value) (*Rows, error){"Query": db.Query, "oracle": db.queryOracle} {
				rows, err := query(c.sql, oid)
				if err != nil {
					t.Fatalf("%s(%s, %d): %v", engine, c.sql, oid, err)
				}
				if rows.Len() != wantRows {
					t.Fatalf("%s(%s, %d): %d rows, want %d", engine, c.sql, oid, rows.Len(), wantRows)
				}
				if strings.Join(rows.Columns, ",") != strings.Join(c.want, ",") {
					t.Errorf("%s(%s, %d): columns %v, want %v", engine, c.sql, oid, rows.Columns, c.want)
				}
			}
		}
	}
	for _, sql := range []string{`SELECT * FROM emp WHERE FALSE`, `SELECT * FROM emp LIMIT 0`} {
		rows, err := db.Query(sql)
		if err != nil || rows.Len() != 0 || strings.Join(rows.Columns, ",") != strings.Join(emp, ",") {
			t.Errorf("%s: %v rows, columns %v, err %v", sql, rows.Len(), rows.Columns, err)
		}
	}
}

// R3: what a plan binds at execution — an index key, a range bound,
// LIMIT, OFFSET — is a literal or a parameter, so only a LIMIT or OFFSET
// it cannot use fails there, and that is the query's error on every
// access path. The tables are empty on purpose: no row ever reaches the
// point where a row-at-a-time engine would notice.
func TestBindErrorsAreReturned(t *testing.T) {
	db := Open()
	mustExecAll(t, db, []string{
		`CREATE TABLE r (oid INTEGER PRIMARY KEY, u TEXT UNIQUE, h INTEGER, o INTEGER, a INTEGER, b INTEGER)`,
		`CREATE INDEX ih ON r(h)`,
		`CREATE ORDERED INDEX io ON r(o)`,
		`CREATE INDEX iab ON r(a, b)`,
	})
	for _, c := range []struct {
		sql, access string
		args        []Value
		want        string
	}{
		{`SELECT oid FROM r WHERE oid = 1 LIMIT -1`, "BY PRIMARY KEY ON oid", nil, "LIMIT must be"},
		{`SELECT oid FROM r WHERE u = 'x' OFFSET -1`, "BY UNIQUE ON u", nil, "OFFSET must be"},
		{`SELECT oid FROM r WHERE h = ? LIMIT ?`, "BY INDEX ON h", []Value{1, "x"}, "LIMIT must be"},
		{`SELECT oid FROM r WHERE o > ? LIMIT 1 OFFSET ?`, "BY RANGE ON o", []Value{-1, 0.5}, "OFFSET must be"},
		{`SELECT oid FROM r WHERE a = -1 AND b = 2 LIMIT 'x'`, "BY COMPOSITE INDEX iab", nil, "LIMIT must be"},
		{`SELECT COUNT(*) FROM r LIMIT -1`, "CARDINALITY OF r", nil, "LIMIT must be"},
	} {
		if plan := mustExplain(t, db, c.sql); !strings.Contains(plan, c.access) {
			t.Fatalf("%s: plan %q does not use %s", c.sql, plan, c.access)
		}
		if _, err := db.Query(c.sql, c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want %s", c.sql, err, c.want)
		}
	}
}
