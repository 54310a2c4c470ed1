package rdb

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestSQLConformance is a table-driven battery over the SQL subset: each
// case runs against a fixed dataset and compares the formatted result
// rows. It pins the engine's semantics (NULL handling, joins, counts,
// ordering) against regressions, and pins each form the grammar does not
// have to its refusal: a *SyntaxError at the form's first token.
var conformanceSetup = []string{
	`CREATE TABLE dept (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT, budget INTEGER)`,
	`CREATE TABLE emp (oid INTEGER PRIMARY KEY AUTOINCREMENT, name TEXT, salary INTEGER, bonus INTEGER, dept_oid INTEGER)`,
	`CREATE INDEX ie ON emp(dept_oid)`,
	`INSERT INTO dept (name, budget) VALUES ('Eng', 100), ('Sales', 50), ('Empty', 10)`,
	`INSERT INTO emp (name, salary, bonus, dept_oid) VALUES
		('ann', 30, 5, 1), ('bob', 20, NULL, 1), ('cat', 25, 2, 2), ('dan', 20, 1, NULL)`,
}

func conformanceDB(t testing.TB, db *DB) *DB {
	t.Helper()
	for _, s := range conformanceSetup {
		if _, err := db.Exec(s); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	return db
}

func TestSQLConformance(t *testing.T) {
	runConformance(t, conformanceDB(t, Open()))
}

// TestSQLConformanceDurable runs the same battery on the durable
// engine — fresh, and again after a close/reopen recovery cycle — so
// recovered state is pinned to exactly the same semantics.
func TestSQLConformanceDurable(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	conformanceDB(t, db)
	runConformance(t, db)
	db = reopen(t, db, dir)
	defer db.Close()
	runConformance(t, db)
}

func runConformance(t *testing.T, db *DB) {
	cases := []struct {
		name string
		sql  string
		args []Value
		want string // rows as "a,b|c,d", or "refused at N" for a *SyntaxError at byte N
	}{
		{"projection order", `SELECT name, salary FROM emp WHERE oid = 1`, nil, "ann,30"},
		{"arith precedence", `SELECT salary + bonus * 2 FROM emp WHERE oid = 1`, nil, "refused at 14"},
		{"paren precedence", `SELECT (salary + bonus) * 2 FROM emp WHERE oid = 1`, nil, "refused at 7"},
		{"unary minus", `SELECT name, -30 FROM emp WHERE salary > -21 AND -1 < bonus ORDER BY name`, nil, "ann,-30|cat,-30|dan,-30"},
		{"string concat", `SELECT name + '!' FROM emp WHERE oid = 1`, nil, "refused at 12"},
		{"null arith propagates", `SELECT salary + bonus FROM emp WHERE oid = 2`, nil, "refused at 14"},
		{"null comparison filters", `SELECT name FROM emp WHERE bonus > 0 ORDER BY name`, nil, "ann|cat|dan"},
		{"is null", `SELECT name FROM emp WHERE bonus IS NULL`, nil, "refused at 33"},
		{"is not null count", `SELECT COUNT(bonus) FROM emp`, nil, "refused at 7"},
		{"count star vs col", `SELECT COUNT(*), COUNT(bonus) FROM emp`, nil, "refused at 7"},
		{"sum ignores null", `SELECT SUM(bonus) FROM emp`, nil, "refused at 7"},
		{"avg over non-null", `SELECT AVG(bonus) FROM emp`, nil, "refused at 7"},
		{"min max", `SELECT MIN(salary), MAX(salary) FROM emp`, nil, "refused at 7"},
		{"group by", `SELECT dept_oid, COUNT(*) FROM emp WHERE dept_oid IS NOT NULL GROUP BY dept_oid ORDER BY dept_oid`, nil, "refused at 17"},
		{"group by having", `SELECT dept_oid, SUM(salary) AS s FROM emp WHERE dept_oid IS NOT NULL GROUP BY dept_oid HAVING SUM(salary) > 30 ORDER BY dept_oid`, nil, "refused at 17"},
		{"aggregate arithmetic", `SELECT MAX(salary) - MIN(salary) FROM emp`, nil, "refused at 7"},
		{"inner join", `SELECT e.name, d.name FROM emp e JOIN dept d ON d.oid = e.dept_oid ORDER BY e.name`, nil, "ann,Eng|bob,Eng|cat,Sales"},
		{"left join keeps orphans", `SELECT e.name, d.name FROM emp e LEFT JOIN dept d ON d.oid = e.dept_oid ORDER BY e.name`, nil, "refused at 33"},
		{"left join miss is null", `SELECT d.name, e.name FROM dept d LEFT JOIN emp e ON e.dept_oid = d.oid WHERE d.name = 'Empty'`, nil, "refused at 34"},
		{"join with aggregate", `SELECT COUNT(*) AS n FROM emp e JOIN dept d ON d.oid = e.dept_oid WHERE d.budget > 60`, nil, "2"},
		{"distinct", `SELECT DISTINCT salary FROM emp ORDER BY salary`, nil, "refused at 7"},
		{"in list", `SELECT name FROM emp WHERE salary IN (20, 25) ORDER BY name`, nil, "refused at 34"},
		{"not in", `SELECT name FROM emp WHERE salary NOT IN (20) ORDER BY name`, nil, "refused at 34"},
		{"between", `SELECT name FROM emp WHERE salary BETWEEN 21 AND 29 ORDER BY name`, nil, "refused at 34"},
		{"like prefix", `SELECT name FROM emp WHERE name LIKE 'a%'`, nil, "ann"},
		{"like underscore", `SELECT name FROM emp WHERE name LIKE '_ob'`, nil, "bob"},
		{"not like", `SELECT name FROM emp WHERE NOT name LIKE '%a%' ORDER BY name`, nil, "refused at 27"},
		{"or precedence", `SELECT name FROM emp WHERE salary = 30 OR salary = 25 AND bonus = 2 ORDER BY name`, nil, "refused at 39"},
		{"limit offset", `SELECT name FROM emp ORDER BY name LIMIT 2 OFFSET 1`, nil, "bob|cat"},
		{"order desc", `SELECT name FROM emp ORDER BY salary DESC, name ASC LIMIT 2`, nil, "ann|cat"},
		{"params in projection", `SELECT ?, salary FROM emp WHERE oid = ?`, []Value{2, 1}, "2,30"},
		{"coalesce", `SELECT COALESCE(bonus, 0) FROM emp ORDER BY oid`, nil, "refused at 7"},
		{"scalar in where", `SELECT name FROM emp WHERE LOWER(name) = 'ann'`, nil, "refused at 27"},
		{"alias order by output", `SELECT name AS n, salary AS s FROM emp ORDER BY s DESC, n`, nil, "ann,30|cat,25|bob,20|dan,20"},
		{"true false literals", `SELECT COUNT(*) FROM emp WHERE TRUE`, nil, "4"},
		{"count empty", `SELECT COUNT(*) FROM emp WHERE FALSE`, nil, "0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows, err := db.Query(c.sql, c.args...)
			if se := (*SyntaxError)(nil); errors.As(err, &se) {
				if got := fmt.Sprintf("refused at %d", se.Pos); got != c.want {
					t.Fatalf("%s: %s, want %s", c.sql, got, c.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("%s: %v", c.sql, err)
			}
			var parts []string
			for _, r := range rows.Data {
				var cells []string
				for _, v := range r {
					cells = append(cells, string(v.Append(nil)))
				}
				parts = append(parts, strings.Join(cells, ","))
			}
			got := strings.Join(parts, "|")
			if got != c.want {
				t.Fatalf("%s:\ngot  %q\nwant %q", c.sql, got, c.want)
			}
		})
	}
}
