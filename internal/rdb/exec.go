package rdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"webmlgo/internal/cell"
)

// This file holds the value operations of compiled plans: arithmetic,
// LIKE, the scalar functions, range-bound folding, and the grouping key
// DISTINCT and GROUP BY share. Expressions themselves are evaluated only
// by the closures compile.go builds; the test oracle has boxed twins of
// the arithmetic and the functions (oracle_test.go) and shares LIKE and
// DISTINCT.

// calc applies an arithmetic operator to two non-NULL cells: + also
// concatenates texts, two integers stay integral, any other pair of
// numbers is computed in float64.
func calc(op string, l, r cell.Cell) (cell.Cell, error) {
	if op == "+" && l.Kind == cell.KString && r.Kind == cell.KString {
		return cell.Text(l.Str + r.Str), nil
	}
	if l.Kind == cell.KInt && r.Kind == cell.KInt {
		a, b := l.Int(), r.Int()
		switch op {
		case "+":
			return cell.Int(a + b), nil
		case "-":
			return cell.Int(a - b), nil
		case "*":
			return cell.Int(a * b), nil
		case "/":
			if b == 0 {
				return cell.Cell{}, fmt.Errorf("rdb: division by zero")
			}
			return cell.Int(a / b), nil
		}
	}
	for _, c := range [2]cell.Cell{l, r} {
		if !isNumber(c) {
			return cell.Cell{}, fmt.Errorf("rdb: %s is not numeric", typeName(c))
		}
	}
	a, b := toFloat(l), toFloat(r)
	switch op {
	case "+":
		return cell.Float(a + b), nil
	case "-":
		return cell.Float(a - b), nil
	case "*":
		return cell.Float(a * b), nil
	case "/":
		if b == 0 {
			return cell.Cell{}, fmt.Errorf("rdb: division by zero")
		}
		return cell.Float(a / b), nil
	}
	return cell.Cell{}, fmt.Errorf("rdb: unknown arithmetic op %q", op)
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

// callScalar applies a scalar function to already-evaluated arguments.
func callScalar(x *FuncExpr, vals []cell.Cell) (cell.Cell, error) {
	switch x.Name {
	case "LOWER", "UPPER", "LENGTH":
		if len(vals) != 1 {
			return cell.Cell{}, fmt.Errorf("rdb: %s takes 1 argument", x.Name)
		}
		v := vals[0]
		if v.IsNull() {
			return v, nil
		}
		if v.Kind != cell.KString {
			return cell.Cell{}, fmt.Errorf("rdb: %s requires a string", x.Name)
		}
		switch x.Name {
		case "LOWER":
			return cell.Text(strings.ToLower(v.Str)), nil
		case "UPPER":
			return cell.Text(strings.ToUpper(v.Str)), nil
		}
		return cell.Int(int64(len(v.Str))), nil
	case "ABS":
		if len(vals) != 1 {
			return cell.Cell{}, fmt.Errorf("rdb: ABS takes 1 argument")
		}
		switch v := vals[0]; v.Kind {
		case cell.KNull:
			return v, nil
		case cell.KInt:
			return cell.Int(max(v.Int(), -v.Int())), nil
		case cell.KFloat:
			if f := v.Float(); f < 0 {
				return cell.Float(-f), nil
			}
			return v, nil
		}
		return cell.Cell{}, fmt.Errorf("rdb: ABS requires a number")
	case "COALESCE":
		for _, v := range vals {
			if !v.IsNull() {
				return v, nil
			}
		}
		return cell.Cell{}, nil
	case "SUBSTR":
		if len(vals) != 3 {
			return cell.Cell{}, fmt.Errorf("rdb: SUBSTR takes 3 arguments")
		}
		if vals[0].IsNull() {
			return vals[0], nil
		}
		if vals[0].Kind != cell.KString || vals[1].Kind != cell.KInt || vals[2].Kind != cell.KInt {
			return cell.Cell{}, fmt.Errorf("rdb: SUBSTR(string, int, int)")
		}
		s, start, length := vals[0].Str, vals[1].Int(), vals[2].Int()
		// SQL SUBSTR is 1-based: a start before the first byte reads from
		// it; a start past the end, or a length that is not positive, reads
		// nothing.
		i := int64(0)
		if start > 1 {
			i = min(start-1, int64(len(s)))
		}
		return cell.Text(s[i : i+min(max(length, 0), int64(len(s))-i)]), nil
	}
	return cell.Cell{}, fmt.Errorf("rdb: unknown function %s", x.Name)
}

func tightenLo(b *rangeBound, v cell.Cell, inclusive bool) {
	if !b.set {
		*b = rangeBound{val: v, inclusive: inclusive, set: true}
		return
	}
	if c, err := compare(v, b.val); err == nil && (c > 0 || (c == 0 && !inclusive)) {
		*b = rangeBound{val: v, inclusive: inclusive, set: true}
	}
}

func tightenHi(b *rangeBound, v cell.Cell, inclusive bool) {
	if !b.set {
		*b = rangeBound{val: v, inclusive: inclusive, set: true}
		return
	}
	if c, err := compare(v, b.val); err == nil && (c < 0 || (c == 0 && !inclusive)) {
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

// appendKey appends c's grouping key, the identity DISTINCT and GROUP BY
// hold values to: the kind, then the payload — length-prefixed for a
// text or time, so no text can run into the next key — with a real that
// equals an integer keyed as that integer (1.0 and 1, -0.0 and 0).
func appendKey(dst []byte, c cell.Cell) []byte {
	if c.Kind == cell.KFloat {
		if f := c.Float(); f == math.Trunc(f) && math.Abs(f) < 1<<63 {
			c = cell.Int(int64(f))
		}
	}
	dst = append(dst, byte(c.Kind))
	switch c.Kind {
	case cell.KInt, cell.KFloat:
		return binary.LittleEndian.AppendUint64(dst, c.Num)
	case cell.KString, cell.KTime:
		return append(binary.AppendUvarint(dst, uint64(len(c.Str))), c.Str...)
	}
	return dst
}

func distinctRows(in *Rows) *Rows {
	seen := make(map[string]bool, len(in.Data))
	out := &Rows{Columns: in.Columns}
	var key []byte
	for _, row := range in.Data {
		key = key[:0]
		for _, c := range row {
			key = appendKey(key, c)
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out.Data = append(out.Data, row)
	}
	return out
}
