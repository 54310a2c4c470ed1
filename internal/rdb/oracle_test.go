package rdb

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
	"time"

	"webmlgo/internal/cell"
)

// The oracle: the tree-walking driver that compiled plans replaced, kept
// as the reference compareEngines, compareDML and FuzzPlannerVsInterp
// hold Query and Exec against. It is written the obvious way — scan every
// table in row-id order, join by nested loops, materialise every joined
// environment, then filter, project or count, sort and cut, resolving each
// name per row — over boxed Values: it boxes a table's cells as it reads
// them and unboxes its result rows at the end, so its comparisons and
// stores (the Value helpers at the end of this file) are a second
// implementation of the cell engine's. It shares with production only the
// parser, LIKE's matcher and the table mutators it writes through. It
// uses no index: an index-free answer is the stronger second opinion.
//
// The compiled plan defines SQL here (rules R1–R3, DESIGN.md "The
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
	return execSelectTables(db.tables, sel, boxAll(cargs))
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

	frames := []frame{{name: strings.ToLower(st.From.name()), tbl: base}}
	for i, j := range st.Joins {
		frames = append(frames, frame{name: strings.ToLower(j.Table.name()), tbl: joinTables[i]})
	}
	cols := outputColumns(st, frames)
	out := &Rows{Columns: cols, Data: [][]cell.Cell{{cell.Int(int64(len(envs)))}}}
	if !st.Count {
		if out, err = evalPlainSelect(st, cols, envs, args); err != nil {
			return nil, err
		}
	}
	if len(st.OrderBy) > 0 {
		if err := orderRows(st, out, envs, args); err != nil {
			return nil, err
		}
	}
	if err := applyLimitOffset(st, out, args); err != nil {
		return nil, err
	}
	return out, nil
}

// joinRows builds the cross-product environments restricted by the join
// conditions: every base row in row-id order, each extended by a nested
// loop over the joined table.
func joinRows(st *SelectStmt, base *table, joinTables []*table, args []Value) ([]*env, error) {
	baseName := strings.ToLower(st.From.name())
	var envs []*env
	for id := range base.rows {
		if r := oracleRow(base, id); r != nil {
			envs = append(envs, &env{frames: []frame{{name: baseName, tbl: base, row: r}}})
		}
	}
	for ji, j := range st.Joins {
		jt := joinTables[ji]
		jname := strings.ToLower(j.Table.name())
		var next []*env
		for _, en := range envs {
			for id := range jt.rows {
				r := oracleRow(jt, id)
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
				}
			}
		}
		envs = next
	}
	return envs, nil
}

// outputColumns expands the projection list into the result header,
// from the statement and the tables alone (R2).
func outputColumns(st *SelectStmt, frames []frame) []string {
	if st.Count {
		return []string{cmp.Or(st.Columns[0].Alias, "COUNT(*)")}
	}
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
			case c.Star != "":
				for _, f := range en.frames {
					if c.Star == "*" || f.name == strings.ToLower(c.Star) {
						row = append(row, f.row...)
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
		out.Data = append(out.Data, unboxRow(row))
	}
	return out, nil
}

// unboxRow is a result row of the oracle's as the engine returns it.
func unboxRow(vals []Value) []cell.Cell {
	row := make([]cell.Cell, len(vals))
	for i, v := range vals {
		var err error
		if row[i], err = cell.Of(v); err != nil {
			panic(err) // every Value the oracle computes is one a cell holds
		}
	}
	return row
}

// orderRows sorts out.Data. For plain selects the ORDER BY expressions are
// evaluated against the source environments (parallel to out.Data); for
// a count they must name its output column.
func orderRows(st *SelectStmt, out *Rows, envs []*env, args []Value) error {
	n := len(out.Data)
	keys := make([][]Value, n)
	for i := 0; i < n; i++ {
		keys[i] = make([]Value, len(st.OrderBy))
		for k, term := range st.OrderBy {
			var v Value
			var err error
			if !st.Count {
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
	sorted := make([][]cell.Cell, n)
	for i, j := range idx {
		sorted[i] = out.Data[j]
	}
	out.Data = sorted
	return nil
}

func orderByOutput(e Expr, out *Rows, rowIdx int) (Value, error) {
	ref, ok := e.(*ColRef)
	if !ok {
		return nil, fmt.Errorf("rdb: ORDER BY of a COUNT(*) must name its output column")
	}
	ci := out.Col(ref.Column)
	if ci < 0 {
		return nil, fmt.Errorf("rdb: ORDER BY references unknown output column %q", ref.Column)
	}
	return out.Data[rowIdx][ci].Value(), nil
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

// frame binds one table alias to a row during evaluation.
type frame struct {
	name string // alias (lower-cased)
	tbl  *table
	row  []Value
}

type env struct{ frames []frame }

func singleEnv(t *table, name string, r []Value) *env {
	return &env{frames: []frame{{name: strings.ToLower(name), tbl: t, row: r}}}
}

// resolve finds the value of a column reference in the environment.
func (e *env) resolve(ref *ColRef) (Value, error) {
	if ref.Table != "" {
		want := strings.ToLower(ref.Table)
		for _, f := range e.frames {
			if f.name != want {
				continue
			}
			i, ok := f.tbl.col(ref.Column)
			if !ok {
				return nil, fmt.Errorf("rdb: no column %q in %q", ref.Column, ref.Table)
			}
			return f.row[i], nil
		}
		return nil, fmt.Errorf("rdb: unknown table or alias %q", ref.Table)
	}
	var found *frame
	var idx int
	for fi := range e.frames {
		f := &e.frames[fi]
		if i, ok := f.tbl.col(ref.Column); ok {
			if found != nil {
				return nil, fmt.Errorf("rdb: ambiguous column %q", ref.Column)
			}
			found = f
			idx = i
		}
	}
	if found == nil {
		return nil, fmt.Errorf("rdb: unknown column %q", ref.Column)
	}
	return found.row[idx], nil
}

// evalConst evaluates an expression with no column references (LIMIT,
// OFFSET).
func evalConst(e Expr, args []Value) (Value, error) {
	return evalExpr(e, &env{}, args)
}

func evalExpr(e Expr, en *env, args []Value) (Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *Param:
		if x.Index < 0 || x.Index >= len(args) {
			return nil, fmt.Errorf("rdb: parameter index %d out of range", x.Index)
		}
		return args[x.Index], nil
	case *ColRef:
		return en.resolve(x)
	case *BinaryExpr:
		return evalBinary(x, en, args)
	}
	return nil, fmt.Errorf("rdb: cannot evaluate %T", e)
}

func evalBinary(x *BinaryExpr, en *env, args []Value) (Value, error) {
	// AND gets SQL three-valued short-circuit treatment.
	if x.Op == "AND" {
		l, err := evalExpr(x.L, en, args)
		if err != nil {
			return nil, err
		}
		if l != nil && !truthy(l) {
			return false, nil
		}
		r, err := evalExpr(x.R, en, args)
		if err != nil {
			return nil, err
		}
		if r != nil && !truthy(r) {
			return false, nil
		}
		if l == nil || r == nil {
			return nil, nil
		}
		return true, nil
	}
	l, err := evalExpr(x.L, en, args)
	if err != nil {
		return nil, err
	}
	r, err := evalExpr(x.R, en, args)
	if err != nil {
		return nil, err
	}
	if l == nil || r == nil {
		return nil, nil // NULL propagates through comparisons
	}
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		c, err := compareValues(l, r)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "=":
			return c == 0, nil
		case "<>":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		case ">=":
			return c >= 0, nil
		}
	case "LIKE":
		ls, ok1 := l.(string)
		rs, ok2 := r.(string)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("rdb: LIKE requires strings, got %T and %T", l, r)
		}
		return likeMatch(ls, rs), nil
	}
	return nil, fmt.Errorf("rdb: unknown operator %q", x.Op)
}

// execOracle is Exec through the oracle, for UPDATE and DELETE: the rows
// to write are found by scanning the table and walking WHERE per row, the
// SET values by walking each expression over the old row, and the writes
// go through the same table mutators as Exec's, without undo log or
// engine. Names are the planner's (R1).
func (db *DB) execOracle(sql string, args ...Value) (Result, error) {
	st, err := db.prepare(sql)
	if err != nil {
		return Result{}, err
	}
	cargs, err := coerceArgs(st, args)
	if err != nil {
		return Result{}, err
	}
	vals := boxAll(cargs)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, err := db.buildPlan(st); err != nil {
		return Result{}, err
	}
	switch x := st.(type) {
	case *UpdateStmt:
		return db.updateOracle(x, vals)
	case *DeleteStmt:
		t := db.tables[strings.ToLower(x.Table)]
		ids, err := matchRows(t, x.Table, x.Where, vals)
		if err != nil {
			return Result{}, err
		}
		var res Result
		for _, id := range ids {
			if t.deleteRow(id, &faultCtx{}) != nil {
				res.RowsAffected++
			}
		}
		return res, nil
	}
	return Result{}, fmt.Errorf("rdb: the DML oracle runs UPDATE and DELETE, got %T", st)
}

func (db *DB) updateOracle(st *UpdateStmt, args []Value) (Result, error) {
	t := db.tables[strings.ToLower(st.Table)]
	ids, err := matchRows(t, st.Table, st.Where, args)
	if err != nil {
		return Result{}, err
	}
	res := Result{}
	var f faultCtx
	for _, id := range ids {
		old := oracleRow(t, id)
		vals := append([]Value(nil), old...)
		env := singleEnv(t, st.Table, old)
		for _, s := range st.Sets {
			v, err := evalExpr(s.Value, env, args)
			if err != nil {
				return res, err
			}
			pos, _ := t.col(s.Column)
			cv, err := coerceToCol(v, t.cols[pos].def.Type)
			if err != nil {
				return res, fmt.Errorf("%w (column %s)", err, s.Column)
			}
			vals[pos] = cv
		}
		newRow := Row(unboxRow(vals))
		if err := db.checkForeignKeys(t, newRow, &f); err != nil {
			return res, err
		}
		if err := t.updateRow(id, newRow, &f); err != nil {
			return res, err
		}
		res.RowsAffected++
	}
	return res, nil
}

// oracleRow is the oracle's read of slot id: the whole row, boxed, or nil
// for a deleted slot and for one whose fault fails (the engine reports
// it).
func oracleRow(t *table, id int) []Value {
	r, _ := t.readRow(id, allCols, &faultCtx{})
	if r == nil {
		return nil
	}
	return boxAll(r)
}

// matchRows returns the ids of the rows of t that satisfy where, in
// row-id order, all before the caller writes one.
func matchRows(t *table, tableName string, where Expr, args []Value) ([]int, error) {
	var ids []int
	for id := range t.rows {
		r := oracleRow(t, id)
		if r == nil {
			continue
		}
		if where != nil {
			v, err := evalExpr(where, singleEnv(t, tableName, r), args)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// The oracle's Value helpers: the boxed twins of value.go's and exec.go's
// cell operations, kept here so the engine is checked against a second
// implementation rather than its own.

// coerceToCol converts v to the column type, or errors.
func coerceToCol(v Value, t ColType) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch t {
	case TInt:
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		case bool:
			return boolToInt(x), nil
		}
	case TReal:
		switch x := v.(type) {
		case float64:
			return x, nil
		case int64:
			return float64(x), nil
		}
	case TText:
		if x, ok := v.(string); ok {
			return x, nil
		}
	case TBool:
		switch x := v.(type) {
		case bool:
			return x, nil
		case int64:
			return x != 0, nil
		}
	case TTime:
		switch x := v.(type) {
		case time.Time:
			return x, nil
		case string:
			for _, layout := range []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"} {
				if ts, err := time.Parse(layout, x); err == nil {
					return ts, nil
				}
			}
		}
	}
	return nil, fmt.Errorf("rdb: cannot store %T in %s column", v, t)
}

// compareValues orders two non-nil values. NULL ordering is handled by the
// caller. Mixed int/float comparisons are performed in float64.
func compareValues(a, b Value) (int, error) {
	switch x := a.(type) {
	case int64:
		switch y := b.(type) {
		case int64:
			return cmpInt(x, y), nil
		case float64:
			return cmpFloat(float64(x), y), nil
		}
	case float64:
		switch y := b.(type) {
		case float64:
			return cmpFloat(x, y), nil
		case int64:
			return cmpFloat(x, float64(y)), nil
		}
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y), nil
		}
	case bool:
		if y, ok := b.(bool); ok {
			return cmpInt(boolToInt(x), boolToInt(y)), nil
		}
	case time.Time:
		if y, ok := b.(time.Time); ok {
			switch {
			case x.Before(y):
				return -1, nil
			case x.After(y):
				return 1, nil
			default:
				return 0, nil
			}
		}
	}
	return 0, fmt.Errorf("rdb: cannot compare %T with %T", a, b)
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// truthy reports whether v counts as true in a WHERE clause.
func truthy(v Value) bool {
	switch x := v.(type) {
	case nil:
		return false
	case bool:
		return x
	case int64:
		return x != 0
	case float64:
		return x != 0
	case string:
		return x != ""
	}
	return true
}
