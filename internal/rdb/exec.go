package rdb

import (
	"fmt"
	"strings"
)

// This file holds what has one implementation for compiled plans and the
// test oracle alike: arithmetic, LIKE, the scalar functions, range-bound
// folding and DISTINCT. Expressions themselves are evaluated only by the
// closures compile.go builds.

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

// applyScalarFunc applies a scalar function to already-evaluated
// arguments.
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
