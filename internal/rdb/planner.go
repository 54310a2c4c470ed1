package rdb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// The planner lowers a SelectStmt into a SelectPlan once per SQL text.
// Access-path choice is cost-based: candidate paths are enumerated from
// the WHERE conjuncts and the available indexes, estimated from table
// and index cardinality, and the cheapest wins. Ties keep the earlier
// candidate, and candidates are enumerated most specific first (point
// lookups, then composite, then range, then scan), so on empty or tiny
// tables — where every estimate collapses toward zero — EXPLAIN still
// names the index the statement was written for.

// planCandidate pairs a possible access path with its estimated cost.
type planCandidate struct {
	path accessPath
	cost float64
	elim bool // reading the path in index order satisfies ORDER BY
}

// eqConjunct is one "col = constExpr" found in the WHERE top-level ANDs.
type eqConjunct struct {
	colLower string
	col      string // original spelling, for EXPLAIN
	val      Expr
}

// rangeConjunct accumulates the bound expressions on one column.
type rangeConjunct struct {
	colLower string
	col      string
	los      []astBound
	his      []astBound
}

type astBound struct {
	expr      Expr
	inclusive bool
}

// collectEq gathers the base table's "col = const" conjuncts in AND-walk
// order, the first per column. With joins in play only a qualified
// column counts: an unqualified one could belong to a joined table. No
// index is required here: composite prefixes may use columns that carry
// no single-column index.
func collectEq(where Expr, t *table, tableName string, requireQualified bool) []eqConjunct {
	var out []eqConjunct
	seen := map[string]bool{}
	add := func(colSide, valSide Expr) bool {
		ref, ok := colSide.(*ColRef)
		if !ok {
			return false
		}
		if ref.Table == "" && requireQualified {
			return false
		}
		if ref.Table != "" && !strings.EqualFold(ref.Table, tableName) {
			return false
		}
		lower := strings.ToLower(ref.Column)
		if _, ok := t.colIdx[lower]; !ok {
			return false
		}
		if !isConstExpr(valSide) {
			return false
		}
		if !seen[lower] {
			seen[lower] = true
			out = append(out, eqConjunct{colLower: lower, col: ref.Column, val: valSide})
		}
		return true
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		be, ok := e.(*BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case "AND":
			walk(be.L)
			walk(be.R)
		case "=":
			if !add(be.L, be.R) {
				add(be.R, be.L)
			}
		}
	}
	if where != nil {
		walk(where)
	}
	return out
}

// collectRanges gathers range conjuncts per base column in AND-walk
// order. Bound values stay unevaluated: they are folded at bind time,
// when parameters are known.
func collectRanges(where Expr, t *table, tableName string, requireQualified bool) []*rangeConjunct {
	var out []*rangeConjunct
	byCol := map[string]*rangeConjunct{}
	flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
	add := func(colSide, valSide Expr, op string) bool {
		ref, ok := colSide.(*ColRef)
		if !ok {
			return false
		}
		if ref.Table == "" && requireQualified {
			return false
		}
		if ref.Table != "" && !strings.EqualFold(ref.Table, tableName) {
			return false
		}
		lower := strings.ToLower(ref.Column)
		if _, ok := t.colIdx[lower]; !ok {
			return false
		}
		if !isConstExpr(valSide) {
			return false
		}
		rc := byCol[lower]
		if rc == nil {
			rc = &rangeConjunct{colLower: lower, col: ref.Column}
			byCol[lower] = rc
			out = append(out, rc)
		}
		b := astBound{expr: valSide, inclusive: op == ">=" || op == "<="}
		if op == ">" || op == ">=" {
			rc.los = append(rc.los, b)
		} else {
			rc.his = append(rc.his, b)
		}
		return true
	}
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
		op := be.Op
		if _, isRange := flip[op]; !isRange {
			return
		}
		if !add(be.L, be.R, op) {
			add(be.R, be.L, flip[op])
		}
	}
	if where != nil {
		walk(where)
	}
	return out
}

func compileBounds(bs []astBound) []boundCand {
	out := make([]boundCand, len(bs))
	for i, b := range bs {
		out[i] = boundCand{val: compileExpr(b.expr, nil), inclusive: b.inclusive}
	}
	return out
}

// buildPlan compiles one SELECT, UPDATE, DELETE or INSERT. The caller
// must hold at least a read lock on db.mu. Four rules make the plan the
// definition of SQL here (DESIGN.md "The oracle"): R1, every table, alias
// and column name resolves here, so a bad name is an error whatever the
// data, the access path or the expression around it; R2, the result
// header is fixed here from statement and schema alone; R3, what is
// bound at execution — a key, a bound, LIMIT, OFFSET — is a literal or a
// parameter, and one LIMIT or OFFSET cannot use is the query's error
// whatever the data (evalLimits).
func (db *DB) buildPlan(st Statement) (*SelectPlan, error) {
	switch x := st.(type) {
	case *SelectStmt:
		return db.buildSelectPlan(x)
	case *UpdateStmt:
		return db.buildWritePlan(x.Table, x.Where, x.Sets)
	case *DeleteStmt:
		return db.buildWritePlan(x.Table, x.Where, nil)
	case *InsertStmt:
		return db.buildInsertPlan(x)
	}
	return nil, fmt.Errorf("rdb: cannot plan %T", st)
}

// buildWritePlan compiles an UPDATE or DELETE as the SELECT of the rows
// it writes — the same access-path choice, filter and rules — plus, for
// UPDATE, the SET values as closures over the row being replaced. A write
// replaces or unindexes the whole row, so its plan reads every column.
func (db *DB) buildWritePlan(tableName string, where Expr, sets []SetClause) (*SelectPlan, error) {
	p, err := db.buildSelectPlan(&SelectStmt{From: TableRef{Table: tableName}, Where: where})
	if err != nil {
		return nil, err
	}
	p.need[0] = allCols
	vals := make([]compiledExpr, len(sets))
	for i, s := range sets {
		pos, ok := p.base.col(s.Column)
		if !ok {
			return nil, fmt.Errorf("rdb: no column %q in table %q", s.Column, tableName)
		}
		p.setCols = append(p.setCols, pos)
		if vals[i], err = compileNamed(s.Value, p.frames); err != nil {
			return nil, err
		}
	}
	p.values = [][]compiledExpr{vals}
	return p, nil
}

// buildInsertPlan compiles an INSERT's values. It reads no table and so
// depends on no size class: only DDL invalidates it.
func (db *DB) buildInsertPlan(st *InsertStmt) (*SelectPlan, error) {
	t, ok := db.tables[strings.ToLower(st.Table)]
	if !ok {
		return nil, fmt.Errorf("rdb: no such table %q", st.Table)
	}
	p := &SelectPlan{base: t, baseTable: st.Table, epoch: db.ddlEpoch}
	for _, c := range st.Columns {
		pos, ok := t.col(c)
		if !ok {
			return nil, fmt.Errorf("rdb: no column %q in table %q", c, st.Table)
		}
		p.setCols = append(p.setCols, pos)
	}
	for _, row := range st.Rows {
		vals := make([]compiledExpr, len(row))
		for i, e := range row {
			var err error
			if vals[i], err = compileNamed(e, nil); err != nil {
				return nil, err
			}
		}
		p.values = append(p.values, vals)
	}
	return p, nil
}

// buildSelectPlan compiles one SELECT against the live catalog.
func (db *DB) buildSelectPlan(sel *SelectStmt) (*SelectPlan, error) {
	base, ok := db.tables[strings.ToLower(sel.From.Table)]
	if !ok {
		return nil, fmt.Errorf("rdb: no such table %q", sel.From.Table)
	}
	p := &SelectPlan{
		stmt:      sel,
		base:      base,
		baseTable: sel.From.Table,
		countOnly: sel.Count,
		epoch:     db.ddlEpoch,
	}
	p.need = make([]colMask, 1+len(sel.Joins))
	p.frames = []planFrame{{name: strings.ToLower(sel.From.name()), tbl: base, need: &p.need[0]}}
	joinTables := make([]*table, len(sel.Joins))
	for i, j := range sel.Joins {
		jt, ok := db.tables[strings.ToLower(j.Table.Table)]
		if !ok {
			return nil, fmt.Errorf("rdb: no such table %q", j.Table.Table)
		}
		joinTables[i] = jt
		p.frames = append(p.frames, planFrame{name: strings.ToLower(j.Table.name()), tbl: jt, need: &p.need[i+1]})
	}

	// ORDER BY eligibility for index-order elimination: single table, no
	// count, every key a plain base-table column, one direction
	// throughout.
	var orderCols []string
	orderDesc := false
	orderEligible := false
	if len(sel.OrderBy) > 0 && len(sel.Joins) == 0 && !p.countOnly {
		orderEligible = true
		orderDesc = sel.OrderBy[0].Desc
		for _, term := range sel.OrderBy {
			ref, ok := term.Expr.(*ColRef)
			if !ok || term.Desc != orderDesc {
				orderEligible = false
				break
			}
			if ref.Table != "" && !strings.EqualFold(ref.Table, sel.From.name()) {
				orderEligible = false
				break
			}
			lower := strings.ToLower(ref.Column)
			if _, ok := base.colIdx[lower]; !ok {
				orderEligible = false
				break
			}
			orderCols = append(orderCols, lower)
		}
		if !orderEligible {
			orderCols = nil
		}
	}

	requireQualified := len(sel.Joins) > 0
	eqs := collectEq(sel.Where, base, sel.From.name(), requireQualified)
	ranges := collectRanges(sel.Where, base, sel.From.name(), requireQualified)
	eqByCol := map[string]eqConjunct{}
	for _, eq := range eqs {
		eqByCol[eq.colLower] = eq
	}
	rangeByCol := map[string]*rangeConjunct{}
	for _, rc := range ranges {
		rangeByCol[rc.colLower] = rc
	}

	if p.countOnly && sel.Where == nil && len(sel.Joins) == 0 {
		// What the schema already says: the answer is the live-row count.
		p.access = accessPath{kind: accessCount, est: 1}
	} else {
		p.access = db.chooseAccess(p, base, eqs, eqByCol, rangeByCol, orderEligible, orderCols, orderDesc, len(sel.OrderBy) > 0)
	}

	// Joins: prefer probing the new table's primary key, hash index or
	// unique column, then a composite index whose leading column matches,
	// then a nested loop.
	var err error
	for ji, j := range sel.Joins {
		jt := joinTables[ji]
		jp := joinPlan{tbl: jt, displayTable: j.Table.Table, estRows: jt.alive}
		if jp.on, err = compileNamed(j.On, p.frames[:ji+2]); err != nil {
			return nil, err
		}
		pointKeyed := func(col string) bool { return accessKind(jt, col) != "SCAN" }
		compositeLed := func(col string) bool { return jt.compositeLedBy(col) != nil }
		var outerExpr Expr
		if jp.col, outerExpr = joinProbe(j.On, j.Table.name(), pointKeyed); jp.col != "" {
			lower := strings.ToLower(jp.col)
			jp.typ = jt.cols[jt.colIdx[lower]].def.Type
			switch {
			case jt.colIdx[lower] == jt.pk:
				jp.kind = jkPK
				jp.uniqMap = jt.pkMap
			case jt.indexes[lower] != nil:
				jp.kind = jkHash
				jp.hashIdx = jt.indexes[lower]
			default:
				jp.kind = jkUnique
				jp.uniqMap = jt.uniques[lower]
			}
			jp.label = accessKind(jt, jp.col)
		} else if jp.col, outerExpr = joinProbe(j.On, j.Table.name(), compositeLed); jp.col != "" {
			jp.kind = jkComposite
			jp.comp = jt.compositeLedBy(jp.col)
			jp.col = jp.comp.colNames[0]
			jp.label = "COMPOSITE INDEX " + jp.comp.name
			if len(jp.comp.cols) == 1 {
				jp.label = "ORDERED INDEX"
			}
		}
		if outerExpr != nil {
			jp.outer = compileExpr(outerExpr, p.frames[:ji+1])
		}
		p.joins = append(p.joins, jp)
	}

	if p.where, err = compileNamed(sel.Where, p.frames); err != nil {
		return nil, err
	}
	if err := p.bindProjection(sel); err != nil {
		return nil, err
	}
	if err := p.bindOrderBy(sel); err != nil {
		return nil, err
	}
	if p.limit, err = compileNamed(sel.Limit, nil); err != nil {
		return nil, err
	}
	if p.offset, err = compileNamed(sel.Offset, nil); err != nil {
		return nil, err
	}
	p.windowed = p.where == nil && len(p.joins) == 0 && !p.countOnly && !p.needSort()

	// Validity inputs: replan when DDL changes or any referenced table
	// crosses a size-class boundary (cost estimates go stale).
	seen := map[*table]bool{}
	for _, f := range p.frames {
		if !seen[f.tbl] {
			seen[f.tbl] = true
			p.sizes = append(p.sizes, tableSize{t: f.tbl, class: sizeClass(f.tbl.alive)})
		}
	}
	return p, nil
}

// chooseAccess enumerates candidate access paths for the base table and
// picks the cheapest. Estimates: a point lookup on a key column returns
// one row; a hash bucket returns alive/distinct rows; a sorted-index
// prefix returns alive/distinctPrefixes rows (a further range predicate
// keeps about a third of the segment); a bare range keeps about a third
// of the table; a scan reads everything. When ORDER BY is present,
// paths that cannot produce index order pay a doubled cost for the sort.
func (db *DB) chooseAccess(p *SelectPlan, base *table, eqs []eqConjunct,
	eqByCol map[string]eqConjunct, rangeByCol map[string]*rangeConjunct,
	orderEligible bool, orderCols []string, orderDesc bool, hasOrderBy bool) accessPath {

	alive := float64(base.alive)
	// A point lookup costs one probe, but never more than the table
	// holds: on an empty table every estimate is zero and the tie is
	// broken by enumeration order, keeping the point-path labels.
	pointCost := 1.0
	if alive < 1 {
		pointCost = alive
	}
	var cands []planCandidate

	// Point lookups from equality conjuncts, in AND-walk order. The
	// per-column path follows table.lookup's precedence: primary key,
	// then hash index, then unique map. The hash estimate is floored at
	// three distinct values: below that, cardinality on a tiny table is
	// noise, and the point path is what EXPLAIN should name.
	for _, eq := range eqs {
		i := base.colIdx[eq.colLower]
		typ := base.cols[i].def.Type
		val := []compiledExpr{compileExpr(eq.val, nil)}
		switch {
		case i == base.pk:
			cands = append(cands, planCandidate{
				path: accessPath{kind: accessPK, col: eq.col, typ: typ, label: "PRIMARY KEY", uniqMap: base.pkMap, eq: val, est: pointCost},
				cost: pointCost,
			})
		case base.indexes[eq.colLower] != nil:
			idx := base.indexes[eq.colLower]
			distinct := len(idx)
			if distinct < 3 {
				distinct = 3
			}
			cost := alive / float64(distinct)
			cands = append(cands, planCandidate{
				path: accessPath{kind: accessHash, col: eq.col, typ: typ, label: accessKind(base, eq.col), hashIdx: idx, eq: val, est: cost},
				cost: cost,
			})
		case base.uniques[eq.colLower] != nil:
			cands = append(cands, planCandidate{
				path: accessPath{kind: accessUnique, col: eq.col, typ: typ, label: "UNIQUE", uniqMap: base.uniques[eq.colLower], eq: val, est: pointCost},
				cost: pointCost,
			})
		}
	}

	// Sorted indexes, the primary key's order last: consume the longest
	// equality prefix, then an optional range on the next column, then
	// index-order output.
	sorted := base.composites
	if base.pkOrd != nil {
		sorted = append(sorted[:len(sorted):len(sorted)], base.pkOrd)
	}
	for _, comp := range sorted {
		k := 0
		var eqVals []compiledExpr
		for k < len(comp.cols) {
			eq, ok := eqByCol[comp.colNames[k]]
			if !ok {
				break
			}
			eqVals = append(eqVals, compileExpr(eq.val, nil))
			k++
		}
		var los, his []boundCand
		rangeCol := ""
		if k < len(comp.cols) {
			if rc, ok := rangeByCol[comp.colNames[k]]; ok {
				los = compileBounds(rc.los)
				his = compileBounds(rc.his)
				rangeCol = rc.col
			}
		}
		elim := orderEligible && sameColumnList(comp.colNames[k:], orderCols)
		if k == 0 && rangeCol == "" && !elim {
			continue
		}
		cost := alive
		if k > 0 {
			d := comp.distinctPrefixes(k)
			if d < 1 {
				d = 1
			}
			cost = alive / float64(d)
		}
		if rangeCol != "" {
			cost /= 3
		}
		cands = append(cands, planCandidate{
			path: accessPath{
				kind: accessComposite, comp: comp, eq: eqVals,
				los: los, his: his, rangeCol: rangeCol,
				reverse: elim && orderDesc, est: cost,
			},
			cost: cost,
			elim: elim,
		})
	}

	cands = append(cands, planCandidate{
		path: accessPath{kind: accessScan, est: alive},
		cost: alive,
	})

	best := cands[0]
	bestEff := effectiveCost(best, hasOrderBy)
	for _, c := range cands[1:] {
		if eff := effectiveCost(c, hasOrderBy); eff < bestEff {
			best, bestEff = c, eff
		}
	}
	if best.elim {
		p.sortElim = true
	}
	return best.path
}

func effectiveCost(c planCandidate, hasOrderBy bool) float64 {
	if hasOrderBy && !c.elim {
		return c.cost * 2
	}
	return c.cost
}

// joinProbe finds the first ON conjunct "newTable.col = <expr over the
// earlier tables>" whose column passes usable (it is handed the column
// name as written). It returns that column and the outer expression,
// or "" when there is none.
func joinProbe(on Expr, jtName string, usable func(col string) bool) (string, Expr) {
	be, ok := on.(*BinaryExpr)
	if !ok {
		return "", nil
	}
	switch be.Op {
	case "AND":
		if c, e := joinProbe(be.L, jtName, usable); c != "" {
			return c, e
		}
		return joinProbe(be.R, jtName, usable)
	case "=":
		for _, side := range [2][2]Expr{{be.L, be.R}, {be.R, be.L}} {
			ref, ok := side[0].(*ColRef)
			if ok && strings.EqualFold(ref.Table, jtName) && usable(ref.Column) && !refersTo(side[1], jtName) {
				return ref.Column, side[1]
			}
		}
	}
	return "", nil
}

// refersTo reports whether e mentions a column of tableName: qualified
// with it, or unqualified and so possibly its.
func refersTo(e Expr, tableName string) bool {
	return !walkExpr(e, func(x Expr) bool {
		ref, ok := x.(*ColRef)
		return !ok || (ref.Table != "" && !strings.EqualFold(ref.Table, tableName))
	})
}

// bindProjection fixes the result header and, but for a count, the
// projection steps. The header depends on statement and schema alone
// (R2): stars expand here, whether or not a row will ever match.
func (p *SelectPlan) bindProjection(sel *SelectStmt) error {
	if p.countOnly {
		p.cols = []string{cmp.Or(sel.Columns[0].Alias, "COUNT(*)")}
		return nil
	}
	for _, c := range sel.Columns {
		if c.Star != "" {
			var step projStep
			for fi, f := range p.frames {
				if c.Star == "*" || f.name == strings.ToLower(c.Star) {
					*f.need = allCols
					step.frames = append(step.frames, fi)
					p.cols = append(p.cols, f.tbl.columnNames()...)
				}
			}
			if step.frames == nil {
				return fmt.Errorf("rdb: unknown table or alias %q", c.Star)
			}
			p.proj = append(p.proj, step)
			continue
		}
		name := c.Alias
		if name == "" {
			name = exprName(c.Expr)
		}
		p.cols = append(p.cols, name)
		expr, err := compileNamed(c.Expr, p.frames)
		if err != nil {
			return err
		}
		p.proj = append(p.proj, projStep{expr: expr})
	}
	return nil
}

// bindOrderBy binds each ORDER BY term to its one key source. A term is
// an expression over the joined rows; an unqualified name that is no
// column there may name an output column (an alias) instead. A count is
// sorted after the joined rows are gone, so there every term must name
// its output column.
func (p *SelectPlan) bindOrderBy(sel *SelectStmt) error {
	byOutput := p.countOnly
	for _, term := range sel.OrderBy {
		k := orderKey{desc: term.Desc}
		ref, isRef := term.Expr.(*ColRef)
		err := checkNames(term.Expr, p.frames)
		switch {
		case err == nil && !byOutput:
			k.expr = compileExpr(term.Expr, p.frames)
		case err != nil && (!isRef || ref.Table != ""):
			return err
		case !isRef:
			return errors.New("rdb: ORDER BY of a COUNT(*) must name its output column")
		default:
			k.outCol = slices.IndexFunc(p.cols, func(c string) bool { return strings.EqualFold(c, ref.Column) })
			if k.outCol < 0 {
				if err == nil {
					err = fmt.Errorf("rdb: ORDER BY references unknown output column %q", ref.Column)
				}
				return err
			}
		}
		p.orderBy = append(p.orderBy, k)
	}
	return nil
}
