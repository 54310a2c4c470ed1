package rdb

import "webmlgo/internal/cell"

// This file holds the value operations of compiled plans beyond
// comparison (value.go): LIKE and range-bound folding. Expressions
// themselves are evaluated only by the closures compile.go builds; the
// test oracle (oracle_test.go) shares LIKE.

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

// isConstExpr reports whether e is known at bind time: a literal or a
// parameter.
func isConstExpr(e Expr) bool {
	switch e.(type) {
	case *Literal, *Param:
		return true
	}
	return false
}

// exprName is the header of an unaliased output term.
func exprName(e Expr) string {
	if ref, ok := e.(*ColRef); ok {
		return ref.Column
	}
	return "expr"
}
