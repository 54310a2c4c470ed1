package rdb

import (
	"fmt"
	"strings"
)

// frame binds one table alias to a row during evaluation.
type frame struct {
	name string // alias (lower-cased)
	tbl  *table
	row  Row // nil row means "all NULLs" (LEFT JOIN miss)
}

type env struct {
	frames []frame
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

// evalConst evaluates an expression with no column references (INSERT
// values, LIMIT).
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

func arith(op string, l, r Value) (Value, error) {
	// String concatenation with +.
	if op == "+" {
		if ls, ok := l.(string); ok {
			if rs, ok := r.(string); ok {
				return ls + rs, nil
			}
		}
	}
	li, lInt := l.(int64)
	ri, rInt := r.(int64)
	if lInt && rInt {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "/":
			if ri == 0 {
				return nil, fmt.Errorf("rdb: division by zero")
			}
			return li / ri, nil
		}
	}
	lf, err := toFloat(l)
	if err != nil {
		return nil, err
	}
	rf, err := toFloat(r)
	if err != nil {
		return nil, err
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("rdb: division by zero")
		}
		return lf / rf, nil
	}
	return nil, fmt.Errorf("rdb: unknown arithmetic op %q", op)
}

func toFloat(v Value) (float64, error) {
	switch x := v.(type) {
	case int64:
		return float64(x), nil
	case float64:
		return x, nil
	}
	return 0, fmt.Errorf("rdb: %T is not numeric", v)
}

// likeMatch implements SQL LIKE with % and _ wildcards using an
// iterative two-pointer scan. On a mismatch past a %, the pattern
// rewinds to just after the most recent % and the text restarts one
// byte later — each position is retried at most once per %, so matching
// is O(len(s) * len(pattern)) where the naive recursive formulation is
// exponential on patterns like "%a%a%a%b" against a long run of 'a's.
func likeMatch(s, pattern string) bool {
	var si, pi int
	star, match := -1, 0 // position after the last %, text position it matched at
	for si < len(s) {
		switch {
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi + 1
			match = si
			pi++
		case pi < len(pattern) && (pattern[pi] == '_' || equalFoldByte(pattern[pi], s[si])):
			si++
			pi++
		case star >= 0:
			match++
			si = match
			pi = star
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}

func equalFoldByte(a, b byte) bool {
	if a == b {
		return true
	}
	if a >= 'A' && a <= 'Z' {
		a += 'a' - 'A'
	}
	if b >= 'A' && b <= 'Z' {
		b += 'a' - 'A'
	}
	return a == b
}

func evalScalarFunc(x *FuncExpr, en *env, args []Value) (Value, error) {
	if aggregateFuncs[x.Name] {
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

// applyScalarFunc applies a scalar function to already-evaluated
// arguments: the one implementation behind compiled expressions and
// evalExpr alike.
func applyScalarFunc(x *FuncExpr, vals []Value) (Value, error) {
	switch x.Name {
	case "LOWER":
		if len(vals) != 1 {
			return nil, fmt.Errorf("rdb: LOWER takes 1 argument")
		}
		if vals[0] == nil {
			return nil, nil
		}
		s, ok := vals[0].(string)
		if !ok {
			return nil, fmt.Errorf("rdb: LOWER requires a string")
		}
		return strings.ToLower(s), nil
	case "UPPER":
		if len(vals) != 1 {
			return nil, fmt.Errorf("rdb: UPPER takes 1 argument")
		}
		if vals[0] == nil {
			return nil, nil
		}
		s, ok := vals[0].(string)
		if !ok {
			return nil, fmt.Errorf("rdb: UPPER requires a string")
		}
		return strings.ToUpper(s), nil
	case "LENGTH":
		if len(vals) != 1 {
			return nil, fmt.Errorf("rdb: LENGTH takes 1 argument")
		}
		if vals[0] == nil {
			return nil, nil
		}
		s, ok := vals[0].(string)
		if !ok {
			return nil, fmt.Errorf("rdb: LENGTH requires a string")
		}
		return int64(len(s)), nil
	case "ABS":
		if len(vals) != 1 {
			return nil, fmt.Errorf("rdb: ABS takes 1 argument")
		}
		switch n := vals[0].(type) {
		case nil:
			return nil, nil
		case int64:
			if n < 0 {
				return -n, nil
			}
			return n, nil
		case float64:
			if n < 0 {
				return -n, nil
			}
			return n, nil
		}
		return nil, fmt.Errorf("rdb: ABS requires a number")
	case "COALESCE":
		for _, v := range vals {
			if v != nil {
				return v, nil
			}
		}
		return nil, nil
	case "SUBSTR":
		if len(vals) != 3 {
			return nil, fmt.Errorf("rdb: SUBSTR takes 3 arguments")
		}
		if vals[0] == nil {
			return nil, nil
		}
		s, ok := vals[0].(string)
		start, ok2 := vals[1].(int64)
		length, ok3 := vals[2].(int64)
		if !ok || !ok2 || !ok3 {
			return nil, fmt.Errorf("rdb: SUBSTR(string, int, int)")
		}
		// SQL SUBSTR is 1-based.
		i := int(start) - 1
		if i < 0 {
			i = 0
		}
		if i > len(s) {
			return "", nil
		}
		j := i + int(length)
		if j > len(s) {
			j = len(s)
		}
		return s[i:j], nil
	}
	return nil, fmt.Errorf("rdb: unknown function %s", x.Name)
}

// candidateIDs chooses an access path for a single-table statement. It
// scans unless WHERE contains a top-level equality conjunct over an
// indexed column (primary key, secondary index, or unique column).
func candidateIDs(t *table, tableName string, where Expr, args []Value) ([]int, error) {
	return candidateIDsQualified(t, tableName, where, args, false)
}

// candidateIDsQualified is candidateIDs with control over whether the
// matched equality conjunct must use a table-qualified column reference.
// Qualification is required when the query has joins: an unqualified
// column in WHERE may belong to a different table.
func candidateIDsQualified(t *table, tableName string, where Expr, args []Value, requireQualified bool) ([]int, error) {
	if where != nil {
		if col, valExpr, ok := indexableEquality(where, t, tableName, requireQualified); ok {
			v, err := evalConst(valExpr, args)
			if err == nil {
				ids, usable := t.lookup(col, v)
				if usable {
					return ids, nil
				}
			}
		}
		// Range predicates over an ordered index.
		if col, lo, hi, ok := rangeConjuncts(where, t, tableName, requireQualified, args); ok {
			if ids, usable := t.rangeLookup(col, lo, hi); usable {
				return ids, nil
			}
		}
	}
	ids := make([]int, 0, t.alive)
	for id, r := range t.rows {
		if r != nil {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// indexableEquality searches the top-level AND conjuncts of where for
// "col = constExpr" (or the symmetric form) where col belongs to t and is
// indexed, and constExpr contains no column references.
func indexableEquality(where Expr, t *table, tableName string, requireQualified bool) (string, Expr, bool) {
	switch x := where.(type) {
	case *BinaryExpr:
		switch x.Op {
		case "AND":
			if c, v, ok := indexableEquality(x.L, t, tableName, requireQualified); ok {
				return c, v, true
			}
			return indexableEquality(x.R, t, tableName, requireQualified)
		case "=":
			if c, v, ok := eqSide(x.L, x.R, t, tableName, requireQualified); ok {
				return c, v, true
			}
			return eqSide(x.R, x.L, t, tableName, requireQualified)
		}
	}
	return "", nil, false
}

func eqSide(colSide, valSide Expr, t *table, tableName string, requireQualified bool) (string, Expr, bool) {
	ref, ok := colSide.(*ColRef)
	if !ok {
		return "", nil, false
	}
	if ref.Table == "" && requireQualified {
		return "", nil, false
	}
	if ref.Table != "" && !strings.EqualFold(ref.Table, tableName) {
		return "", nil, false
	}
	lower := strings.ToLower(ref.Column)
	i, ok := t.colIdx[lower]
	if !ok {
		return "", nil, false
	}
	indexed := i == t.pk
	if _, has := t.indexes[lower]; has {
		indexed = true
	}
	if _, has := t.uniques[lower]; has {
		indexed = true
	}
	if !indexed {
		return "", nil, false
	}
	if !isConstExpr(valSide) {
		return "", nil, false
	}
	return ref.Column, valSide, true
}

// rangeConjuncts collects the tightest lower/upper bounds imposed on one
// ordered-indexed column by the top-level AND conjuncts of where. It
// returns ok=false when no ordered-indexed column is range-constrained.
func rangeConjuncts(where Expr, t *table, tableName string, requireQualified bool, args []Value) (string, rangeBound, rangeBound, bool) {
	bounds := map[string]*[2]rangeBound{} // lower(col) -> [lo, hi]
	var walk func(e Expr)
	walk = func(e Expr) {
		be, ok := e.(*BinaryExpr)
		if !ok {
			return
		}
		if be.Op == "AND" {
			walk(be.L)
			walk(be.R)
			return
		}
		col, val, op := rangeSide(be, t, tableName, requireQualified, args)
		if col == "" {
			return
		}
		lower := lowerKey(col)
		if _, indexed := t.ordered[lower]; !indexed {
			return
		}
		b, ok := bounds[lower]
		if !ok {
			b = &[2]rangeBound{}
			bounds[lower] = b
		}
		switch op {
		case ">":
			tightenLo(&b[0], val, false)
		case ">=":
			tightenLo(&b[0], val, true)
		case "<":
			tightenHi(&b[1], val, false)
		case "<=":
			tightenHi(&b[1], val, true)
		}
	}
	walk(where)
	for col, b := range bounds {
		if b[0].set || b[1].set {
			return col, b[0], b[1], true
		}
	}
	return "", rangeBound{}, rangeBound{}, false
}

// rangeSide normalizes "col op const" / "const op col" into (col,
// value, op-with-col-on-the-left).
func rangeSide(be *BinaryExpr, t *table, tableName string, requireQualified bool, args []Value) (string, Value, string) {
	flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
	op := be.Op
	if _, isRange := flip[op]; !isRange {
		return "", nil, ""
	}
	try := func(colSide, valSide Expr, op string) (string, Value, string) {
		ref, ok := colSide.(*ColRef)
		if !ok {
			return "", nil, ""
		}
		if ref.Table == "" && requireQualified {
			return "", nil, ""
		}
		if ref.Table != "" && !strings.EqualFold(ref.Table, tableName) {
			return "", nil, ""
		}
		if !isConstExpr(valSide) {
			return "", nil, ""
		}
		v, err := evalConst(valSide, args)
		if err != nil || v == nil {
			return "", nil, ""
		}
		return ref.Column, v, op
	}
	if col, v, o := try(be.L, be.R, op); col != "" {
		return col, v, o
	}
	return try(be.R, be.L, flip[op])
}

func tightenLo(b *rangeBound, v Value, inclusive bool) {
	if !b.set {
		*b = rangeBound{val: v, inclusive: inclusive, set: true}
		return
	}
	if c, err := compareValues(v, b.val); err == nil && (c > 0 || (c == 0 && !inclusive)) {
		*b = rangeBound{val: v, inclusive: inclusive, set: true}
	}
}

func tightenHi(b *rangeBound, v Value, inclusive bool) {
	if !b.set {
		*b = rangeBound{val: v, inclusive: inclusive, set: true}
		return
	}
	if c, err := compareValues(v, b.val); err == nil && (c < 0 || (c == 0 && !inclusive)) {
		*b = rangeBound{val: v, inclusive: inclusive, set: true}
	}
}

func isConstExpr(e Expr) bool {
	switch x := e.(type) {
	case *Literal, *Param:
		return true
	case *UnaryExpr:
		return x.Op == "-" && isConstExpr(x.X)
	case *BinaryExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			return isConstExpr(x.L) && isConstExpr(x.R)
		}
	}
	return false
}

func exprName(e Expr) string {
	switch x := e.(type) {
	case *ColRef:
		return x.Column
	case *FuncExpr:
		if x.Star {
			return x.Name + "(*)"
		}
		return x.Name
	}
	return "expr"
}

// evalAggregateSelect groups the WHERE-surviving environments and
// evaluates the select list once per group. cols is the result header;
// the planner has already rejected '*' in an aggregate select list.
func evalAggregateSelect(st *SelectStmt, cols []string, envs []*env, args []Value) (*Rows, error) {
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
		if len(g.envs) == 0 && len(st.GroupBy) > 0 {
			continue
		}
		if st.Having != nil {
			v, err := evalAggExpr(st.Having, g.envs, args)
			if err != nil {
				return nil, err
			}
			if !truthy(v) {
				continue
			}
		}
		var row []Value
		for _, c := range st.Columns {
			v, err := evalAggExpr(c.Expr, g.envs, args)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out.Data = append(out.Data, row)
	}
	return out, nil
}

// evalAggExpr evaluates an expression over a group: aggregate calls reduce
// over the group's rows; everything else is evaluated on the first row.
func evalAggExpr(e Expr, group []*env, args []Value) (Value, error) {
	switch x := e.(type) {
	case *FuncExpr:
		if !aggregateFuncs[x.Name] {
			break
		}
		return evalAggregate(x, group, args)
	case *BinaryExpr:
		if hasAggregate(x.L) || hasAggregate(x.R) {
			l, err := evalAggExpr(x.L, group, args)
			if err != nil {
				return nil, err
			}
			r, err := evalAggExpr(x.R, group, args)
			if err != nil {
				return nil, err
			}
			return evalBinary(&BinaryExpr{Op: x.Op, L: &Literal{Val: l}, R: &Literal{Val: r}}, &env{}, args)
		}
	}
	if len(group) == 0 {
		return nil, nil
	}
	return evalExpr(e, group[0], args)
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

func distinctRows(in *Rows) *Rows {
	seen := make(map[string]bool, len(in.Data))
	out := &Rows{Columns: in.Columns}
	for _, row := range in.Data {
		var kb strings.Builder
		for _, v := range row {
			kb.WriteString(FormatValue(v))
			kb.WriteByte('\x1f')
		}
		k := kb.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out.Data = append(out.Data, row)
	}
	return out
}
