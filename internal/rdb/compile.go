package rdb

import (
	"fmt"
	"strings"

	"webmlgo/internal/cell"
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
// mismatch.

// execCtx is the per-query execution state a compiled plan runs
// against: one current row per plan frame, the columns the plan reads
// per frame, the bind-time parameters and what its row faults share.
// stats is nil on the hot path; EXPLAIN ANALYZE and the traced/recorded
// query paths attach one to collect per-operator actuals (analyze.go).
type execCtx struct {
	rows   []Row
	need   []colMask // the plan's, per frame (SelectPlan.need)
	args   []cell.Cell
	stats  *execStats
	skip   int64 // base entries OFFSET still owes (windowed plans, plan.go visit)
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
type compiledExpr func(*execCtx) (cell.Cell, error)

func errExpr(err error) compiledExpr {
	return func(*execCtx) (cell.Cell, error) { return cell.Cell{}, err }
}

func compileExpr(e Expr, frames []planFrame) compiledExpr {
	switch x := e.(type) {
	case *Literal:
		v, err := cell.Of(x.Val)
		if err != nil {
			return errExpr(err)
		}
		return func(*execCtx) (cell.Cell, error) { return v, nil }
	case *Param:
		i := x.Index
		return func(c *execCtx) (cell.Cell, error) {
			if i < 0 || i >= len(c.args) {
				return cell.Cell{}, fmt.Errorf("rdb: parameter index %d out of range", i)
			}
			return c.args[i], nil
		}
	case *ColRef:
		return compileColRef(x, frames)
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
	return func(c *execCtx) (cell.Cell, error) { return c.rows[fi][ci], nil }
}

func compileBinary(x *BinaryExpr, frames []planFrame) compiledExpr {
	l := compileExpr(x.L, frames)
	r := compileExpr(x.R, frames)
	switch x.Op {
	case "AND":
		// False if a side is false, else NULL if a side is NULL.
		return func(c *execCtx) (cell.Cell, error) {
			lv, err := l(c)
			if err != nil || (!lv.IsNull() && !isTrue(lv)) {
				return cell.Bool(false), err
			}
			rv, err := r(c)
			if err != nil || (!rv.IsNull() && !isTrue(rv)) {
				return cell.Bool(false), err
			}
			if lv.IsNull() || rv.IsNull() {
				return cell.Cell{}, nil
			}
			return cell.Bool(true), nil
		}
	case "=", "<>", "<", "<=", ">", ">=":
		op := x.Op
		return func(c *execCtx) (cell.Cell, error) {
			lv, rv, err := both(c, l, r)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return cell.Cell{}, err
			}
			cv, err := compare(lv, rv)
			if err != nil {
				return cell.Cell{}, err
			}
			switch op {
			case "=":
				return cell.Bool(cv == 0), nil
			case "<>":
				return cell.Bool(cv != 0), nil
			case "<":
				return cell.Bool(cv < 0), nil
			case "<=":
				return cell.Bool(cv <= 0), nil
			case ">":
				return cell.Bool(cv > 0), nil
			}
			return cell.Bool(cv >= 0), nil
		}
	case "LIKE":
		return func(c *execCtx) (cell.Cell, error) {
			lv, rv, err := both(c, l, r)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return cell.Cell{}, err
			}
			if lv.Kind != cell.KString || rv.Kind != cell.KString {
				return cell.Cell{}, fmt.Errorf("rdb: LIKE requires strings, got %s and %s", typeName(lv), typeName(rv))
			}
			return cell.Bool(likeMatch(lv.Str, rv.Str)), nil
		}
	}
	return errExpr(fmt.Errorf("rdb: unknown operator %q", x.Op))
}

// both evaluates the two operands of a binary operator, left first.
func both(c *execCtx, l, r compiledExpr) (lv, rv cell.Cell, err error) {
	if lv, err = l(c); err == nil {
		rv, err = r(c)
	}
	return lv, rv, err
}
