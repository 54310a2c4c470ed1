package rdb

import (
	"fmt"
	"sort"
	"strings"
)

// The oracle: the tree-walking SELECT driver that compiled plans
// replaced, kept as the reference compareEngines and FuzzPlannerVsInterp
// hold Query against. It is written the obvious way — materialise every
// joined environment, then filter, project, sort and cut — and shares
// with production only what has a single implementation there
// (evalExpr, evalAggregateSelect, candidateIDs, distinctRows).
//
// The compiled plan defines SELECT (rules R1–R3, DESIGN.md "The
// oracle"); the oracle obeys R1 by asking the planner whether the names
// resolve, so error texts match, and R2 by expanding stars from the
// tables rather than from the first surviving row.

// queryOracle is Query through the oracle.
func (db *DB) queryOracle(sql string, args ...Value) (*Rows, error) {
	st, err := db.prepare(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("rdb: Query requires a SELECT statement, got %T", st)
	}
	cargs, err := coerceArgs(st, args)
	if err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	if _, err := db.buildPlan(sel); err != nil {
		return nil, err
	}
	return execSelectTables(db.tables, sel, cargs)
}

func execSelectTables(tables map[string]*table, st *SelectStmt, args []Value) (*Rows, error) {
	base, ok := tables[strings.ToLower(st.From.Table)]
	if !ok {
		return nil, fmt.Errorf("rdb: no such table %q", st.From.Table)
	}
	joinTables := make([]*table, len(st.Joins))
	for i, j := range st.Joins {
		jt, ok := tables[strings.ToLower(j.Table.Table)]
		if !ok {
			return nil, fmt.Errorf("rdb: no such table %q", j.Table.Table)
		}
		joinTables[i] = jt
	}

	// Produce joined environments.
	envs, err := joinRows(st, base, joinTables, args)
	if err != nil {
		return nil, err
	}

	// Apply WHERE.
	if st.Where != nil {
		kept := envs[:0]
		for _, en := range envs {
			v, err := evalExpr(st.Where, en, args)
			if err != nil {
				return nil, err
			}
			if truthy(v) {
				kept = append(kept, en)
			}
		}
		envs = kept
	}

	aggregate := len(st.GroupBy) > 0
	if !aggregate {
		for _, c := range st.Columns {
			if c.Expr != nil && hasAggregate(c.Expr) {
				aggregate = true
				break
			}
		}
	}

	frames := []frame{{name: strings.ToLower(st.From.name()), tbl: base}}
	for i, j := range st.Joins {
		frames = append(frames, frame{name: strings.ToLower(j.Table.name()), tbl: joinTables[i]})
	}
	cols := outputColumns(st, frames)
	var out *Rows
	if aggregate {
		out, err = evalAggregateSelect(st, cols, envs, args)
	} else {
		out, err = evalPlainSelect(st, cols, envs, args)
	}
	if err != nil {
		return nil, err
	}

	if st.Distinct {
		out = distinctRows(out)
	}
	if len(st.OrderBy) > 0 {
		if err := orderRows(st, out, envs, aggregate, args); err != nil {
			return nil, err
		}
	}
	if err := applyLimitOffset(st, out, args); err != nil {
		return nil, err
	}
	return out, nil
}

// joinRows builds the cross-product environments restricted by the join
// conditions, using index lookups for equi-joins when possible.
func joinRows(st *SelectStmt, base *table, joinTables []*table, args []Value) ([]*env, error) {
	baseName := strings.ToLower(st.From.name())

	// Seed with the base table rows, using a WHERE-derived index path.
	// With joins in play, only a table-qualified equality may prune the
	// base scan; an unqualified column could belong to a joined table.
	candidates, err := candidateIDsQualified(base, st.From.name(), st.Where, args, len(st.Joins) > 0)
	if err != nil {
		return nil, err
	}
	envs := make([]*env, 0, len(candidates))
	for _, id := range candidates {
		r := base.rowAt(id)
		if r == nil {
			continue
		}
		envs = append(envs, &env{frames: []frame{{name: baseName, tbl: base, row: r}}})
	}

	for ji, j := range st.Joins {
		jt := joinTables[ji]
		jname := strings.ToLower(j.Table.name())
		var next []*env
		// Try an equi-join driven by an index on the new table.
		joinCol, outerExpr := equiJoinKey(j.On, jt, j.Table.name())
		for _, en := range envs {
			matched := false
			if joinCol != "" {
				outerVal, err := evalExpr(outerExpr, en, args)
				if err != nil {
					return nil, err
				}
				if ids, usable := jt.lookup(joinCol, outerVal); usable {
					for _, id := range ids {
						r := jt.rowAt(id)
						if r == nil {
							continue
						}
						cand := &env{frames: append(append([]frame{}, en.frames...), frame{name: jname, tbl: jt, row: r})}
						v, err := evalExpr(j.On, cand, args)
						if err != nil {
							return nil, err
						}
						if truthy(v) {
							next = append(next, cand)
							matched = true
						}
					}
					if !matched && j.Left {
						next = append(next, &env{frames: append(append([]frame{}, en.frames...), frame{name: jname, tbl: jt, row: nil})})
					}
					continue
				}
			}
			// Nested loop fallback.
			for id := range jt.rows {
				r := jt.rowAt(id)
				if r == nil {
					continue
				}
				cand := &env{frames: append(append([]frame{}, en.frames...), frame{name: jname, tbl: jt, row: r})}
				v, err := evalExpr(j.On, cand, args)
				if err != nil {
					return nil, err
				}
				if truthy(v) {
					next = append(next, cand)
					matched = true
				}
			}
			if !matched && j.Left {
				next = append(next, &env{frames: append(append([]frame{}, en.frames...), frame{name: jname, tbl: jt, row: nil})})
			}
		}
		envs = next
	}
	return envs, nil
}

// equiJoinKey inspects an ON expression for a top-level conjunct of the
// form "newTable.col = <expr over earlier tables>". It returns the column
// of the new table and the outer expression, or "" if none is found.
func equiJoinKey(on Expr, jt *table, jtName string) (string, Expr) {
	switch x := on.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "AND":
			if c, e := equiJoinKey(x.L, jt, jtName); c != "" {
				return c, e
			}
			return equiJoinKey(x.R, jt, jtName)
		case "=":
			if c, e := joinSide(x.L, x.R, jt, jtName); c != "" {
				return c, e
			}
			return joinSide(x.R, x.L, jt, jtName)
		}
	}
	return "", nil
}

func joinSide(colSide, otherSide Expr, jt *table, jtName string) (string, Expr) {
	ref, ok := colSide.(*ColRef)
	if !ok || !strings.EqualFold(ref.Table, jtName) {
		return "", nil
	}
	lower := strings.ToLower(ref.Column)
	i, ok := jt.colIdx[lower]
	if !ok {
		return "", nil
	}
	indexed := i == jt.pk
	if _, has := jt.indexes[lower]; has {
		indexed = true
	}
	if _, has := jt.uniques[lower]; has {
		indexed = true
	}
	if !indexed {
		return "", nil
	}
	// The other side must not reference the new table (it must be
	// evaluable in the outer environment).
	if refersTo(otherSide, jtName) {
		return "", nil
	}
	return ref.Column, otherSide
}

// outputColumns expands the projection list into the result header,
// from the statement and the tables alone (R2).
func outputColumns(st *SelectStmt, frames []frame) []string {
	var cols []string
	for _, c := range st.Columns {
		switch {
		case c.Star != "":
			for _, f := range frames {
				if c.Star == "*" || f.name == strings.ToLower(c.Star) {
					cols = append(cols, f.tbl.columnNames()...)
				}
			}
		case c.Alias != "":
			cols = append(cols, c.Alias)
		default:
			cols = append(cols, exprName(c.Expr))
		}
	}
	return cols
}

func evalPlainSelect(st *SelectStmt, cols []string, envs []*env, args []Value) (*Rows, error) {
	out := &Rows{Columns: cols}
	for _, en := range envs {
		var row []Value
		for _, c := range st.Columns {
			switch {
			case c.Star == "*":
				for _, f := range en.frames {
					row = append(row, frameValues(f)...)
				}
			case c.Star != "":
				for _, f := range en.frames {
					if f.name == strings.ToLower(c.Star) {
						row = append(row, frameValues(f)...)
					}
				}
			default:
				v, err := evalExpr(c.Expr, en, args)
				if err != nil {
					return nil, err
				}
				row = append(row, v)
			}
		}
		out.Data = append(out.Data, row)
	}
	return out, nil
}

func frameValues(f frame) []Value {
	n := len(f.tbl.cols)
	vals := make([]Value, n)
	if f.row != nil {
		copy(vals, f.row)
	}
	return vals
}

// orderRows sorts out.Data. For plain selects the ORDER BY expressions are
// evaluated against the source environments (parallel to out.Data); for
// aggregate queries they must name output columns.
func orderRows(st *SelectStmt, out *Rows, envs []*env, aggregate bool, args []Value) error {
	n := len(out.Data)
	keys := make([][]Value, n)
	for i := 0; i < n; i++ {
		keys[i] = make([]Value, len(st.OrderBy))
		for k, term := range st.OrderBy {
			var v Value
			var err error
			if !aggregate && !st.Distinct && i < len(envs) {
				v, err = evalExpr(term.Expr, envs[i], args)
				if ref, ok := term.Expr.(*ColRef); err != nil && ok && ref.Table == "" {
					// No such column in the joined rows (the planner has
					// vouched for the name): an output alias.
					v, err = orderByOutput(term.Expr, out, i)
				}
			} else {
				v, err = orderByOutput(term.Expr, out, i)
			}
			if err != nil {
				return err
			}
			keys[i][k] = v
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(a, b int) bool {
		for k, term := range st.OrderBy {
			va, vb := keys[idx[a]][k], keys[idx[b]][k]
			if va == nil && vb == nil {
				continue
			}
			if va == nil {
				return !term.Desc // NULLs first ascending
			}
			if vb == nil {
				return term.Desc
			}
			c, err := compareValues(va, vb)
			if err != nil {
				sortErr = err
				return false
			}
			if c == 0 {
				continue
			}
			if term.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	sorted := make([][]Value, n)
	for i, j := range idx {
		sorted[i] = out.Data[j]
	}
	out.Data = sorted
	return nil
}

func orderByOutput(e Expr, out *Rows, rowIdx int) (Value, error) {
	ref, ok := e.(*ColRef)
	if !ok {
		return nil, fmt.Errorf("rdb: ORDER BY over aggregates must reference output columns")
	}
	ci := out.Col(ref.Column)
	if ci < 0 {
		return nil, fmt.Errorf("rdb: ORDER BY references unknown output column %q", ref.Column)
	}
	return out.Data[rowIdx][ci], nil
}

func applyLimitOffset(st *SelectStmt, out *Rows, args []Value) error {
	offset := 0
	if st.Offset != nil {
		v, err := evalConst(st.Offset, args)
		if err != nil {
			return err
		}
		n, ok := v.(int64)
		if !ok || n < 0 {
			return fmt.Errorf("rdb: OFFSET must be a non-negative integer")
		}
		offset = int(n)
	}
	if offset > len(out.Data) {
		offset = len(out.Data)
	}
	out.Data = out.Data[offset:]
	if st.Limit != nil {
		v, err := evalConst(st.Limit, args)
		if err != nil {
			return err
		}
		n, ok := v.(int64)
		if !ok || n < 0 {
			return fmt.Errorf("rdb: LIMIT must be a non-negative integer")
		}
		if int(n) < len(out.Data) {
			out.Data = out.Data[:n]
		}
	}
	return nil
}
