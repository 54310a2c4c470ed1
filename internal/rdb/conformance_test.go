package rdb

import (
	"strings"
	"testing"
)

// TestSQLConformance is a table-driven battery over the SQL subset: each
// case runs against a fixed dataset and compares the formatted result
// rows. It pins the engine's semantics (NULL handling, precedence,
// grouping, joins) against regressions.
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
		want string // rows as "a,b|c,d"
	}{
		{"projection order", `SELECT name, salary FROM emp WHERE oid = 1`, nil, "ann,30"},
		{"arith precedence", `SELECT salary + bonus * 2 FROM emp WHERE oid = 1`, nil, "40"},
		{"paren precedence", `SELECT (salary + bonus) * 2 FROM emp WHERE oid = 1`, nil, "70"},
		{"unary minus", `SELECT -salary FROM emp WHERE oid = 1`, nil, "-30"},
		{"string concat", `SELECT name + '!' FROM emp WHERE oid = 1`, nil, "ann!"},
		{"null arith propagates", `SELECT salary + bonus FROM emp WHERE oid = 2`, nil, "NULL"},
		{"null comparison filters", `SELECT name FROM emp WHERE bonus > 0 ORDER BY name`, nil, "ann|cat|dan"},
		{"is null", `SELECT name FROM emp WHERE bonus IS NULL`, nil, "bob"},
		{"is not null count", `SELECT COUNT(bonus) FROM emp`, nil, "3"},
		{"count star vs col", `SELECT COUNT(*), COUNT(bonus) FROM emp`, nil, "4,3"},
		{"sum ignores null", `SELECT SUM(bonus) FROM emp`, nil, "8"},
		{"avg over non-null", `SELECT AVG(bonus) FROM emp`, nil, "2.6666666666666665"},
		{"min max", `SELECT MIN(salary), MAX(salary) FROM emp`, nil, "20,30"},
		{"group by", `SELECT dept_oid, COUNT(*) FROM emp WHERE dept_oid IS NOT NULL GROUP BY dept_oid ORDER BY dept_oid`, nil, "1,2|2,1"},
		{"group by having", `SELECT dept_oid, SUM(salary) AS s FROM emp WHERE dept_oid IS NOT NULL GROUP BY dept_oid HAVING SUM(salary) > 30 ORDER BY dept_oid`, nil, "1,50"},
		{"aggregate arithmetic", `SELECT MAX(salary) - MIN(salary) FROM emp`, nil, "10"},
		{"inner join", `SELECT e.name, d.name FROM emp e JOIN dept d ON d.oid = e.dept_oid ORDER BY e.name`, nil, "ann,Eng|bob,Eng|cat,Sales"},
		{"left join keeps orphans", `SELECT e.name, d.name FROM emp e LEFT JOIN dept d ON d.oid = e.dept_oid ORDER BY e.name`, nil, "ann,Eng|bob,Eng|cat,Sales|dan,NULL"},
		{"left join miss is null", `SELECT d.name, e.name FROM dept d LEFT JOIN emp e ON e.dept_oid = d.oid WHERE d.name = 'Empty'`, nil, "Empty,NULL"},
		{"join with aggregate", `SELECT d.name, COUNT(e.oid) FROM dept d LEFT JOIN emp e ON e.dept_oid = d.oid GROUP BY d.name ORDER BY d.name`, nil, "Empty,0|Eng,2|Sales,1"},
		{"distinct", `SELECT DISTINCT salary FROM emp ORDER BY salary`, nil, "20|25|30"},
		{"in list", `SELECT name FROM emp WHERE salary IN (20, 25) ORDER BY name`, nil, "bob|cat|dan"},
		{"not in", `SELECT name FROM emp WHERE salary NOT IN (20) ORDER BY name`, nil, "ann|cat"},
		{"between", `SELECT name FROM emp WHERE salary BETWEEN 21 AND 29 ORDER BY name`, nil, "cat"},
		{"like prefix", `SELECT name FROM emp WHERE name LIKE 'a%'`, nil, "ann"},
		{"like underscore", `SELECT name FROM emp WHERE name LIKE '_ob'`, nil, "bob"},
		{"not like", `SELECT name FROM emp WHERE NOT name LIKE '%a%' ORDER BY name`, nil, "bob"},
		{"or precedence", `SELECT name FROM emp WHERE salary = 30 OR salary = 25 AND bonus = 2 ORDER BY name`, nil, "ann|cat"},
		{"limit offset", `SELECT name FROM emp ORDER BY name LIMIT 2 OFFSET 1`, nil, "bob|cat"},
		{"order desc", `SELECT name FROM emp ORDER BY salary DESC, name ASC LIMIT 2`, nil, "ann|cat"},
		{"params in projection", `SELECT salary * ? FROM emp WHERE oid = ?`, []Value{2, 1}, "60"},
		{"coalesce", `SELECT COALESCE(bonus, 0) FROM emp ORDER BY oid`, nil, "5|0|2|1"},
		{"scalar in where", `SELECT name FROM emp WHERE LOWER(name) = 'ann'`, nil, "ann"},
		{"alias order by output", `SELECT dept_oid AS d, COUNT(*) AS n FROM emp WHERE dept_oid IS NOT NULL GROUP BY dept_oid ORDER BY n DESC, d`, nil, "1,2|2,1"},
		{"true false literals", `SELECT COUNT(*) FROM emp WHERE TRUE`, nil, "4"},
		{"count empty", `SELECT COUNT(*) FROM emp WHERE FALSE`, nil, "0"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows, err := db.Query(c.sql, c.args...)
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
