package rdb

import (
	"errors"
	"strings"
	"testing"
)

// The grammar is the SQL the stack writes (ParseStatement). Every form
// outside it is refused with a *SyntaxError whose Pos is the byte offset
// of the form's own first token — its keyword, operator or function
// name — by ParseStatement and by the entry point that would run it.

// mustRefuse demands that refusal of sql, at the first occurrence of at,
// from ParseStatement and from Query (a SELECT) or Exec (the rest).
func mustRefuse(t *testing.T, db *DB, sql, at string) {
	t.Helper()
	want := strings.Index(sql, at)
	if want < 0 {
		t.Fatalf("%q does not contain %q", sql, at)
	}
	_, parseErr := ParseStatement(sql)
	var runErr error
	if strings.HasPrefix(sql, "SELECT") {
		_, runErr = db.Query(sql)
	} else {
		_, runErr = db.Exec(sql)
	}
	for entry, err := range map[string]error{"ParseStatement": parseErr, "DB": runErr} {
		var se *SyntaxError
		if !errors.As(err, &se) || se.Pos != want {
			t.Errorf("%s(%s): got %v, want a syntax error at %d (%q)", entry, sql, err, want, at)
		}
	}
}

// removedForms has one statement per form the grammar dropped, with the
// token the refusal must point at.
var removedForms = []struct{ form, sql, at string }{
	{"DISTINCT", `SELECT DISTINCT salary FROM emp`, "DISTINCT"},
	{"GROUP BY", `SELECT dept_oid FROM emp GROUP BY dept_oid`, "GROUP"},
	{"HAVING", `SELECT COUNT(*) FROM emp HAVING COUNT(*) > 1`, "HAVING"},
	{"SUM", `SELECT SUM(salary) FROM emp`, "SUM"},
	{"AVG", `SELECT AVG(salary) FROM emp`, "AVG"},
	{"MIN", `SELECT name FROM emp WHERE salary = MIN(salary)`, "MIN"},
	{"MAX", `SELECT MAX(n) AS m FROM emp`, "MAX"},
	{"COUNT of a column", `SELECT COUNT(bonus) FROM emp`, "COUNT"},
	{"COUNT beside a term", `SELECT name, COUNT(*) FROM emp`, "COUNT"},
	{"COUNT before a term", `SELECT COUNT(*), name FROM emp`, "COUNT"},
	{"COUNT in ORDER BY", `SELECT name FROM emp ORDER BY COUNT(*)`, "COUNT"},
	{"LOWER", `SELECT name FROM emp WHERE LOWER(name) = 'ann'`, "LOWER"},
	{"UPPER", `SELECT UPPER(name) FROM emp`, "UPPER"},
	{"LENGTH", `SELECT LENGTH(name) FROM emp`, "LENGTH"},
	{"ABS", `SELECT ABS(salary) FROM emp`, "ABS"},
	{"COALESCE", `SELECT COALESCE(bonus, 0) FROM emp`, "COALESCE"},
	{"SUBSTR", `SELECT SUBSTR(name, 1, 2) FROM emp`, "SUBSTR"},
	{"OR", `SELECT name FROM emp WHERE salary = 30 OR salary = 25`, "OR"},
	{"NOT", `SELECT name FROM emp WHERE NOT name LIKE 'a%'`, "NOT"},
	{"IN", `SELECT name FROM emp WHERE salary IN (20, 25)`, "IN"},
	{"NOT IN", `SELECT name FROM emp WHERE salary NOT IN (20, 25)`, "NOT"},
	{"BETWEEN", `SELECT name FROM emp WHERE salary BETWEEN 21 AND 29`, "BETWEEN"},
	{"IS NULL", `SELECT name FROM emp WHERE bonus IS NULL`, "IS"},
	{"IS NOT NULL", `DELETE FROM emp WHERE bonus IS NOT NULL`, "IS"},
	{"LEFT JOIN", `SELECT e.name FROM emp e LEFT JOIN dept d ON d.oid = e.dept_oid`, "LEFT"},
	{"LEFT JOIN, no alias", `SELECT emp.name FROM emp LEFT JOIN dept ON dept.oid = emp.dept_oid`, "LEFT"},
	{"LEFT OUTER JOIN", `SELECT e.name FROM emp e LEFT OUTER JOIN dept d ON d.oid = e.dept_oid`, "LEFT"},
	{"INNER JOIN", `SELECT emp.name FROM emp INNER JOIN dept ON dept.oid = emp.dept_oid`, "INNER"},
	{"+", `SELECT salary + 1 FROM emp`, "+"},
	{"- between operands", `UPDATE emp SET salary = salary - 1 WHERE oid = 1`, "-"},
	{"- before a column", `SELECT -salary FROM emp`, "-"},
	{"*", `SELECT name FROM emp WHERE salary * 2 > 40`, "*"},
	{"/", `SELECT 1 / (bonus - bonus) FROM emp LIMIT 1`, "/"},
	{"parentheses", `SELECT name FROM emp WHERE (oid = 1)`, "("},
	{"arithmetic in VALUES", `INSERT INTO dept (name, budget) VALUES ('x', 2 * 3)`, "*"},
	{"DROP TABLE", `DROP TABLE t`, "DROP"},
	{"DROP TABLE IF EXISTS", `DROP TABLE IF EXISTS t`, "DROP"},
}

// refusedCorpus is every diffCorpus and dmlCorpus entry written in a
// removed form, with the token its refusal points at. Both differential
// tests still run these entries, where Query and the oracle, or Exec and
// the oracle, must refuse them alike.
var refusedCorpus = map[string]string{
	`SELECT name FROM emp WHERE bonus IS NULL ORDER BY name`:                                                                       "IS",
	`SELECT DISTINCT salary FROM emp ORDER BY salary`:                                                                              "DISTINCT",
	`SELECT DISTINCT dept_oid FROM emp`:                                                                                            "DISTINCT",
	`SELECT DISTINCT salary FROM emp LIMIT 2`:                                                                                      "DISTINCT",
	`SELECT e.name, d.name FROM emp e LEFT JOIN dept d ON d.oid = e.dept_oid ORDER BY e.name`:                                      "LEFT",
	`SELECT d.name, e.name FROM dept d LEFT JOIN emp e ON e.dept_oid = d.oid ORDER BY d.name, e.name`:                              "LEFT",
	`SELECT d.name, COUNT(e.oid), SUM(e.salary) FROM dept d LEFT JOIN emp e ON e.dept_oid = d.oid GROUP BY d.name ORDER BY d.name`: "COUNT",
	`SELECT dept_oid, COUNT(*) AS n FROM emp WHERE dept_oid IS NOT NULL GROUP BY dept_oid ORDER BY n DESC, dept_oid`:               "COUNT",
	`SELECT dept_oid, AVG(salary) FROM emp GROUP BY dept_oid HAVING COUNT(*) > 1 ORDER BY dept_oid`:                                "AVG",
	`SELECT COUNT(*), COUNT(bonus), MIN(salary), MAX(salary), SUM(bonus) FROM emp`:                                                 "COUNT",
	`SELECT name FROM emp WHERE salary IN (20, 25) ORDER BY name`:                                                                  "IN (",
	`SELECT name FROM emp WHERE salary NOT IN (?, ?) ORDER BY name`:                                                                "NOT",
	`SELECT name FROM emp WHERE salary BETWEEN 21 AND 29 ORDER BY name`:                                                            "BETWEEN",
	`SELECT name FROM emp WHERE NOT name LIKE '_a%' ORDER BY name`:                                                                 "NOT",
	`SELECT name FROM emp WHERE salary = 30 OR salary = 25 AND bonus = 2 ORDER BY name`:                                            "OR",
	`SELECT salary + bonus * 2, name + '!' FROM emp ORDER BY oid`:                                                                  "+",
	`SELECT COALESCE(bonus, -1) FROM emp ORDER BY oid`:                                                                             "COALESCE",
	`SELECT UPPER(name) FROM emp WHERE LOWER(name) = 'ann'`:                                                                        "UPPER",
	`SELECT salary * ? FROM emp WHERE oid = ?`:                                                                                     "*",
	`SELECT salary * 2 AS twice, name FROM emp ORDER BY twice, name`:                                                               "*",
	`SELECT DISTINCT salary AS s FROM emp ORDER BY s DESC`:                                                                         "DISTINCT",
	`SELECT 00 FROM emp WHERE dept_oid=1 AND A*0 AND sAlArY<0`:                                                                     "*",
	`SELECT COUNT(*) AS n, COUNT(*) FROM emp e`:                                                                                    "COUNT",
	`SELECT COUNT(*) FROM dept d LEFT JOIN emp e ON e.dept_oid = d.oid WHERE d.budget > 20`:                                        "LEFT",
	`SELECT COUNT(*) FROM emp GROUP BY dept_oid`:                                                                                   "GROUP",
	`SELECT COUNT(*) AS n FROM emp WHERE salary < 40 GROUP BY dept_oid ORDER BY n DESC`:                                            "GROUP",
	`SELECT COUNT(*) FROM emp HAVING COUNT(*) > 100`:                                                                               "HAVING",
	`SELECT COUNT(*) + 1, COUNT(*) FROM emp`:                                                                                       "+",
	`SELECT 1 + COUNT(*) FROM emp WHERE FALSE`:                                                                                     "+",
	`SELECT 1, COUNT(*) FROM emp WHERE FALSE`:                                                                                      "COUNT",
	`SELECT COALESCE(MAX(salary), 0) FROM emp WHERE FALSE`:                                                                         "COALESCE",
	`SELECT name, SUM(bonus), COUNT(bonus) FROM emp WHERE salary > 99`:                                                             "SUM",
	`SELECT COALESCE(MAX(bonus), 0), -COUNT(*) FROM emp WHERE dept_oid = 1`:                                                        "COALESCE",
	`SELECT dept_oid, MIN(name), AVG(bonus) FROM emp GROUP BY dept_oid HAVING MAX(salary) - MIN(salary) > 0 ORDER BY dept_oid`:     "MIN",
	`UPDATE emp SET salary = salary + 1 WHERE dept_oid = ?`:                                                                        "+",
	`UPDATE emp SET salary = salary * 2 WHERE dept_oid = 1 AND salary > 20`:                                                        "*",
	`UPDATE emp SET bonus = bonus + 1 WHERE bonus >= 2`:                                                                            "+",
	`UPDATE emp SET name = name + '!', bonus = oid WHERE name LIKE '%a%'`:                                                          "+",
	`UPDATE emp SET oid = 11 - oid WHERE oid > 1`:                                                                                  "-",
	`UPDATE emp SET salary = salary / (bonus - 2) WHERE dept_oid = 1`:                                                              "/",
	`UPDATE dept SET budget = budget - 5 WHERE budget >= 50`:                                                                       "-",
}

func TestRemovedFormsRefused(t *testing.T) {
	db := diffFixture(t)
	for _, c := range removedForms {
		t.Run(c.form, func(t *testing.T) { mustRefuse(t, db, c.sql, c.at) })
	}
	seen := 0
	for _, corpus := range [][]struct {
		sql  string
		args []Value
	}{diffCorpus, dmlCorpus} {
		for _, c := range corpus {
			at, refused := refusedCorpus[c.sql]
			if !refused {
				if _, err := ParseStatement(c.sql); err != nil {
					t.Errorf("%s: %v", c.sql, err)
				}
				continue
			}
			seen++
			mustRefuse(t, db, c.sql, at)
		}
	}
	if seen != len(refusedCorpus) {
		t.Errorf("%d of the %d refused entries are in a corpus", seen, len(refusedCorpus))
	}
}
