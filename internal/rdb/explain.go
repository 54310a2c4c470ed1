package rdb

import (
	"fmt"
	"strings"
)

// Explain renders the compiled physical plan of a SELECT, UPDATE or
// DELETE without executing it: the chosen access path of the base table
// with its cost estimate, the strategy of each join, and whether ORDER BY
// is satisfied by index order or needs a sort. An UPDATE or DELETE is the
// plan of the rows it writes, under an UPDATE t / DELETE FROM t heading.
// The data expert overriding a descriptor query or operation (Section 6)
// uses it to check that the hand-tuned SQL actually hits an index. The
// output reflects the exact plan Query or Exec executes — both go
// through planFor — and the trailing PLAN: line says whether that plan
// was served from the plan cache or compiled by this call.
// ExplainAnalyze (analyze.go) is the executing variant with per-operator
// actuals.
func (db *DB) Explain(sql string) (string, error) {
	st, err := db.prepare(sql)
	if err != nil {
		return "", err
	}
	var head string
	switch x := st.(type) {
	case *SelectStmt:
	case *UpdateStmt:
		head = "UPDATE " + x.Table + "\n"
	case *DeleteStmt:
		head = "DELETE FROM " + x.Table + "\n"
	default:
		return "", fmt.Errorf("rdb: EXPLAIN supports SELECT, UPDATE and DELETE, got %T", st)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, hit, err := db.planForCached(sql, st)
	if err != nil {
		return "", err
	}
	return head + renderPlan(p, p.stmt, nil, nil) + planCacheLine(hit), nil
}

// accessKind names the point access path available on a column, in
// display precedence: primary key, unique column, hash index, scan.
func accessKind(t *table, col string) string {
	lower := strings.ToLower(col)
	i, ok := t.colIdx[lower]
	if ok && i == t.pk {
		return "PRIMARY KEY"
	}
	if _, ok := t.uniques[lower]; ok {
		return "UNIQUE"
	}
	if _, ok := t.indexes[lower]; ok {
		return "INDEX"
	}
	return "SCAN"
}
