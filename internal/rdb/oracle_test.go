package rdb

import (
	"fmt"
	"sort"
	"strings"
)

// The oracle: the tree-walking driver that compiled plans replaced, kept
// as the reference compareEngines, compareDML and FuzzPlannerVsInterp
// hold Query and Exec against. It is written the obvious way — scan every
// table in row-id order, join by nested loops, materialise every joined
// environment, then filter, project, group, sort and cut, resolving each
// name per row — and shares with production only the value operations
// that have one implementation (applyScalarFunc, arith, likeMatch,
// compareValues, distinctRows) and the table mutators it writes through.
// It uses no index: an index-free answer is the stronger second opinion.
//
// The compiled plan defines SQL here (rules R1–R4, DESIGN.md "The
// oracle"); the oracle obeys R1 by asking the planner whether the names
// resolve, so error texts match, R2 by expanding stars from the tables
// rather than from the first surviving row, and R4 by giving an empty
// group an all-NULL row.

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
		out, err = evalAggregateSelect(st, cols, &env{frames: frames}, envs, args)
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
			matched := false
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

// frame binds one table alias to a row during evaluation.
type frame struct {
	name string // alias (lower-cased)
	tbl  *table
	row  Row // nil row means "all NULLs" (LEFT JOIN miss)
}

type env struct {
	frames []frame
	aggs   map[*FuncExpr]Value // an aggregate query's group values (evalAggExpr)
}

func singleEnv(t *table, name string, r Row) *env {
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
			if f.row == nil {
				return nil, nil
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
	if found.row == nil {
		return nil, nil
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
	case *UnaryExpr:
		v, err := evalExpr(x.X, en, args)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "NOT":
			if v == nil {
				return nil, nil
			}
			return !truthy(v), nil
		case "-":
			switch n := v.(type) {
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			case nil:
				return nil, nil
			}
			return nil, fmt.Errorf("rdb: cannot negate %T", v)
		}
		return nil, fmt.Errorf("rdb: unknown unary op %q", x.Op)
	case *IsNullExpr:
		v, err := evalExpr(x.X, en, args)
		if err != nil {
			return nil, err
		}
		return (v == nil) != x.Not, nil
	case *InExpr:
		v, err := evalExpr(x.X, en, args)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, nil
		}
		for _, le := range x.List {
			lv, err := evalExpr(le, en, args)
			if err != nil {
				return nil, err
			}
			if lv == nil {
				continue
			}
			if c, err := compareValues(v, lv); err == nil && c == 0 {
				return !x.Not, nil
			}
		}
		return x.Not, nil
	case *FuncExpr:
		return evalScalarFunc(x, en, args)
	case *BinaryExpr:
		return evalBinary(x, en, args)
	}
	return nil, fmt.Errorf("rdb: cannot evaluate %T", e)
}

func evalBinary(x *BinaryExpr, en *env, args []Value) (Value, error) {
	// AND/OR get SQL three-valued-ish short-circuit treatment.
	switch x.Op {
	case "AND":
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
	case "OR":
		l, err := evalExpr(x.L, en, args)
		if err != nil {
			return nil, err
		}
		if l != nil && truthy(l) {
			return true, nil
		}
		r, err := evalExpr(x.R, en, args)
		if err != nil {
			return nil, err
		}
		if r != nil && truthy(r) {
			return true, nil
		}
		if l == nil || r == nil {
			return nil, nil
		}
		return false, nil
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
		return nil, nil // NULL propagates through comparisons and arithmetic
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
	case "+", "-", "*", "/":
		return arith(x.Op, l, r)
	}
	return nil, fmt.Errorf("rdb: unknown operator %q", x.Op)
}

func evalScalarFunc(x *FuncExpr, en *env, args []Value) (Value, error) {
	if aggregateFuncs[x.Name] {
		if v, ok := en.aggs[x]; ok {
			return v, nil
		}
		return nil, fmt.Errorf("rdb: aggregate %s used outside aggregate query", x.Name)
	}
	vals := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := evalExpr(a, en, args)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return applyScalarFunc(x, vals)
}

// evalAggregateSelect groups the WHERE-surviving environments and
// evaluates the select list once per group. cols is the result header;
// the planner has already rejected '*' in an aggregate select list.
// nulls is the all-NULL environment an empty group reads (R4).
func evalAggregateSelect(st *SelectStmt, cols []string, nulls *env, envs []*env, args []Value) (*Rows, error) {
	out := &Rows{Columns: cols}

	// Group environments by GROUP BY key.
	type group struct {
		key  string
		envs []*env
	}
	var groups []*group
	if len(st.GroupBy) == 0 {
		groups = []*group{{key: "", envs: envs}}
	} else {
		byKey := make(map[string]*group)
		for _, en := range envs {
			var kb strings.Builder
			for _, ge := range st.GroupBy {
				v, err := evalExpr(ge, en, args)
				if err != nil {
					return nil, err
				}
				kb.WriteString(FormatValue(v))
				kb.WriteByte('\x1f')
			}
			k := kb.String()
			g, ok := byKey[k]
			if !ok {
				g = &group{key: k}
				byKey[k] = g
				groups = append(groups, g)
			}
			g.envs = append(g.envs, en)
		}
	}

	for _, g := range groups {
		first := nulls
		if len(g.envs) > 0 {
			first = g.envs[0]
		}
		if st.Having != nil {
			v, err := evalAggExpr(st.Having, first, g.envs, args)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		var row []Value
		for _, c := range st.Columns {
			v, err := evalAggExpr(c.Expr, first, g.envs, args)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out.Data = append(out.Data, row)
	}
	return out, nil
}

// evalAggExpr evaluates an expression over a group: every aggregate call
// in it reduces over the group's rows, and everything else reads the
// group's first row.
func evalAggExpr(e Expr, first *env, group []*env, args []Value) (Value, error) {
	en := &env{frames: first.frames, aggs: map[*FuncExpr]Value{}}
	var err error
	walkExpr(e, func(x Expr) bool {
		if f, ok := x.(*FuncExpr); ok && aggregateFuncs[f.Name] {
			en.aggs[f], err = evalAggregate(f, group, args)
		}
		return err == nil
	})
	if err != nil {
		return nil, err
	}
	return evalExpr(e, en, args)
}

func evalAggregate(x *FuncExpr, group []*env, args []Value) (Value, error) {
	if x.Name == "COUNT" && x.Star {
		return int64(len(group)), nil
	}
	if len(x.Args) != 1 {
		return nil, fmt.Errorf("rdb: %s takes exactly 1 argument", x.Name)
	}
	var vals []Value
	for _, en := range group {
		v, err := evalExpr(x.Args[0], en, args)
		if err != nil {
			return nil, err
		}
		if v != nil {
			vals = append(vals, v)
		}
	}
	switch x.Name {
	case "COUNT":
		return int64(len(vals)), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return nil, nil
		}
		allInt := true
		var fsum float64
		var isum int64
		for _, v := range vals {
			switch n := v.(type) {
			case int64:
				isum += n
				fsum += float64(n)
			case float64:
				allInt = false
				fsum += n
			default:
				return nil, fmt.Errorf("rdb: %s over non-numeric value %T", x.Name, v)
			}
		}
		if x.Name == "AVG" {
			return fsum / float64(len(vals)), nil
		}
		if allInt {
			return isum, nil
		}
		return fsum, nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return nil, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := compareValues(v, best)
			if err != nil {
				return nil, err
			}
			if (x.Name == "MIN" && c < 0) || (x.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return nil, fmt.Errorf("rdb: unknown aggregate %s", x.Name)
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
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.publishHead()
	if _, err := db.buildPlan(st); err != nil {
		return Result{}, err
	}
	switch x := st.(type) {
	case *UpdateStmt:
		return db.updateOracle(x, cargs)
	case *DeleteStmt:
		t := db.tables[strings.ToLower(x.Table)]
		ids, err := matchRows(t, x.Table, x.Where, cargs)
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
		newRow := make(Row, len(old))
		copy(newRow, old)
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
			newRow[pos] = cv
		}
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

// oracleRow is the oracle's read of slot id: the whole row, or nil for
// a deleted slot and for one whose fault fails (the engine reports it).
func oracleRow(t *table, id int) Row {
	r, _ := t.readRow(id, allCols, &faultCtx{})
	return r
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
