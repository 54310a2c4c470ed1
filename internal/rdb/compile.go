package rdb

import (
	"fmt"
	"strings"
)

// This file lowers expressions into closures over an execution context.
// Column references are resolved to (frame, column) positions once at
// plan time, so per-row evaluation performs no name resolution, no map
// lookups and no environment allocation — the core of the "compile
// once, execute many" move the fixed descriptor SQL makes possible.
//
// Names are a plan-time matter only (rule R1, DESIGN.md "The oracle"):
// buildPlan passes every expression of the statement through checkNames
// before compiling it, so an unknown or ambiguous name is an error
// whatever the data or the access path, and no closure built here can
// fail on one. What a closure can still fail on is values: a type
// mismatch, a division by zero.

// execCtx is the per-query execution state a compiled plan runs
// against: one current row per plan frame (nil = LEFT JOIN miss), the
// columns the plan reads per frame, the bind-time parameters and what
// its row faults share. stats is nil on the hot path; EXPLAIN ANALYZE
// and the traced/recorded query paths attach one to collect per-operator
// actuals (analyze.go).
type execCtx struct {
	rows   []Row
	need   []colMask // the plan's, per frame (SelectPlan.need)
	args   []Value
	stats  *execStats
	skip   int64      // base entries OFFSET still owes (windowed plans, plan.go visit)
	agg    *aggOutput // set only while an aggregate plan outputs a group
	faults faultCtx
}

// planFrame binds one table alias to a frame slot at plan time. need
// points at the plan's mask for the frame: compiling a column reference
// marks its column there, so the columns a row fault decodes are exactly
// the ones the closures read.
type planFrame struct {
	name string // lower-cased alias
	tbl  *table
	need *colMask
}

// compiledExpr evaluates one expression against the execution context.
type compiledExpr func(*execCtx) (Value, error)

func errExpr(err error) compiledExpr {
	return func(*execCtx) (Value, error) { return nil, err }
}

func compileExpr(e Expr, frames []planFrame) compiledExpr {
	switch x := e.(type) {
	case *Literal:
		v := x.Val
		return func(*execCtx) (Value, error) { return v, nil }
	case *Param:
		i := x.Index
		return func(c *execCtx) (Value, error) {
			if i < 0 || i >= len(c.args) {
				return nil, fmt.Errorf("rdb: parameter index %d out of range", i)
			}
			return c.args[i], nil
		}
	case *ColRef:
		return compileColRef(x, frames)
	case *UnaryExpr:
		return compileUnary(x, frames)
	case *IsNullExpr:
		sub := compileExpr(x.X, frames)
		not := x.Not
		return func(c *execCtx) (Value, error) {
			v, err := sub(c)
			if err != nil {
				return nil, err
			}
			return (v == nil) != not, nil
		}
	case *InExpr:
		return compileIn(x, frames)
	case *FuncExpr:
		return compileFunc(x, frames)
	case *BinaryExpr:
		return compileBinary(x, frames)
	}
	return errExpr(fmt.Errorf("rdb: cannot evaluate %T", e))
}

// resolveCol binds a column reference to its (frame, column) position.
// It is the one place a SELECT resolves a name.
func resolveCol(ref *ColRef, frames []planFrame) (fi, ci int, err error) {
	if ref.Table != "" {
		want := strings.ToLower(ref.Table)
		for fi, f := range frames {
			if f.name != want {
				continue
			}
			ci, ok := f.tbl.col(ref.Column)
			if !ok {
				return 0, 0, fmt.Errorf("rdb: no column %q in %q", ref.Column, ref.Table)
			}
			return fi, ci, nil
		}
		return 0, 0, fmt.Errorf("rdb: unknown table or alias %q", ref.Table)
	}
	fi = -1
	for i, f := range frames {
		if c, ok := f.tbl.col(ref.Column); ok {
			if fi >= 0 {
				return 0, 0, fmt.Errorf("rdb: ambiguous column %q", ref.Column)
			}
			fi, ci = i, c
		}
	}
	if fi < 0 {
		return 0, 0, fmt.Errorf("rdb: unknown column %q", ref.Column)
	}
	return fi, ci, nil
}

// checkNames returns the first name in e, left to right, that does not
// resolve against frames.
func checkNames(e Expr, frames []planFrame) (err error) {
	walkExpr(e, func(x Expr) bool {
		if ref, ok := x.(*ColRef); ok {
			_, _, err = resolveCol(ref, frames)
		}
		return err == nil
	})
	return err
}

// compileNamed is compileExpr behind the name check: the only way an
// expression that mentions columns gets compiled. An absent clause (nil)
// compiles to nil.
func compileNamed(e Expr, frames []planFrame) (compiledExpr, error) {
	if e == nil {
		return nil, nil
	}
	if err := checkNames(e, frames); err != nil {
		return nil, err
	}
	return compileExpr(e, frames), nil
}

func compileColRef(ref *ColRef, frames []planFrame) compiledExpr {
	fi, ci, err := resolveCol(ref, frames)
	if err != nil {
		panic(err) // compileNamed lets no unresolved name through
	}
	if m := frames[fi].need; m != nil {
		*m |= colBit(ci)
	}
	return func(c *execCtx) (Value, error) {
		r := c.rows[fi]
		if r == nil {
			return nil, nil
		}
		return r[ci], nil
	}
}

func compileUnary(x *UnaryExpr, frames []planFrame) compiledExpr {
	sub := compileExpr(x.X, frames)
	switch x.Op {
	case "NOT":
		return func(c *execCtx) (Value, error) {
			v, err := sub(c)
			if err != nil {
				return nil, err
			}
			if v == nil {
				return nil, nil
			}
			return !truthy(v), nil
		}
	case "-":
		return func(c *execCtx) (Value, error) {
			v, err := sub(c)
			if err != nil {
				return nil, err
			}
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
	}
	return errExpr(fmt.Errorf("rdb: unknown unary op %q", x.Op))
}

func compileIn(x *InExpr, frames []planFrame) compiledExpr {
	sub := compileExpr(x.X, frames)
	list := make([]compiledExpr, len(x.List))
	for i, le := range x.List {
		list[i] = compileExpr(le, frames)
	}
	not := x.Not
	return func(c *execCtx) (Value, error) {
		v, err := sub(c)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, nil
		}
		for _, le := range list {
			lv, err := le(c)
			if err != nil {
				return nil, err
			}
			if lv == nil {
				continue
			}
			if cv, err := compareValues(v, lv); err == nil && cv == 0 {
				return !not, nil
			}
		}
		return not, nil
	}
}

func compileFunc(x *FuncExpr, frames []planFrame) compiledExpr {
	if aggregateFuncs[x.Name] {
		// A slot: the value this call accumulated over the group being
		// output. Anywhere else (WHERE, a group key, another aggregate's
		// argument) there is no group, and so no value.
		return func(c *execCtx) (Value, error) {
			if g := c.agg; g != nil {
				for i := range g.calls {
					if g.calls[i].fn == x {
						return g.vals[i], nil
					}
				}
			}
			return nil, fmt.Errorf("rdb: aggregate %s used outside aggregate query", x.Name)
		}
	}
	cargs := make([]compiledExpr, len(x.Args))
	for i, a := range x.Args {
		cargs[i] = compileExpr(a, frames)
	}
	fn := x
	return func(c *execCtx) (Value, error) {
		vals := make([]Value, len(cargs))
		for i, ca := range cargs {
			v, err := ca(c)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return applyScalarFunc(fn, vals)
	}
}

func compileBinary(x *BinaryExpr, frames []planFrame) compiledExpr {
	l := compileExpr(x.L, frames)
	r := compileExpr(x.R, frames)
	switch x.Op {
	case "AND":
		return func(c *execCtx) (Value, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			if lv != nil && !truthy(lv) {
				return false, nil
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			if rv != nil && !truthy(rv) {
				return false, nil
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			return true, nil
		}
	case "OR":
		return func(c *execCtx) (Value, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			if lv != nil && truthy(lv) {
				return true, nil
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			if rv != nil && truthy(rv) {
				return true, nil
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			return false, nil
		}
	case "=", "<>", "<", "<=", ">", ">=":
		op := x.Op
		return func(c *execCtx) (Value, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			cv, err := compareValues(lv, rv)
			if err != nil {
				return nil, err
			}
			switch op {
			case "=":
				return cv == 0, nil
			case "<>":
				return cv != 0, nil
			case "<":
				return cv < 0, nil
			case "<=":
				return cv <= 0, nil
			case ">":
				return cv > 0, nil
			}
			return cv >= 0, nil
		}
	case "LIKE":
		return func(c *execCtx) (Value, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			ls, ok1 := lv.(string)
			rs, ok2 := rv.(string)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("rdb: LIKE requires strings, got %T and %T", lv, rv)
			}
			return likeMatch(ls, rs), nil
		}
	case "+", "-", "*", "/":
		op := x.Op
		return func(c *execCtx) (Value, error) {
			lv, err := l(c)
			if err != nil {
				return nil, err
			}
			rv, err := r(c)
			if err != nil {
				return nil, err
			}
			if lv == nil || rv == nil {
				return nil, nil
			}
			return arith(op, lv, rv)
		}
	}
	return errExpr(fmt.Errorf("rdb: unknown operator %q", x.Op))
}
