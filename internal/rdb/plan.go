package rdb

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"webmlgo/internal/cell"
)

// This file holds the physical plan representation and its executor.
// A SELECT is compiled once (planner.go) into a SelectPlan — access
// path, join strategies, filter, projection, grouping, sort keys and
// limits all resolved to closures and index pointers — and executed many
// times with only the '?' parameters changing. UPDATE and DELETE are
// planned as the SELECT of the rows they write, and INSERT as its value
// closures (db.go), so every statement runs on one engine. The plan is
// the definition of SQL here; the tree-walking reference the
// differential tests compare it against lives in oracle_test.go.

// accessOp enumerates the base-table access operators.
type accessOp int

const (
	accessScan      accessOp = iota // full table scan
	accessPK                        // primary-key point lookup
	accessUnique                    // unique-column point lookup
	accessHash                      // hash-index bucket lookup
	accessComposite                 // sorted-index prefix, range or order walk
	accessSnapPK                    // record-store point fetch at a snapshot sequence
	accessCount                     // no rows read: COUNT(*) of the whole table is table.alive
)

// boundCand is one not-yet-evaluated range bound; the tightest bound is
// selected at bind time, when parameter values are known.
type boundCand struct {
	val       compiledExpr
	inclusive bool
}

// accessPath is the chosen base-table operator with its bind-time
// inputs resolved to closures and its index structures resolved to
// pointers (valid until the next DDL epoch bump).
type accessPath struct {
	kind     accessOp
	col      string  // display column for point paths (original case)
	typ      ColType // point paths: the probed column's type (probeKey)
	label    string  // display label for point paths: PRIMARY KEY / UNIQUE / INDEX
	hashIdx  map[cell.Cell][]int
	uniqMap  map[cell.Cell]int // unique column's map, or the table's pkMap
	comp     *compositeIndex
	eq       []compiledExpr // point value, or sorted-index equality prefix
	los      []boundCand
	his      []boundCand
	rangeCol string // display: bounded column of a sorted-index range
	reverse  bool   // DESC index-order scan (sort elimination)
	est      float64
}

type joinKind int

const (
	jkLoop joinKind = iota
	jkPK
	jkUnique
	jkHash
	jkComposite
)

// joinPlan is one join operator: an indexed equi-join probing the new
// table by a key computed from the outer frames, or a nested loop.
type joinPlan struct {
	left         bool
	tbl          *table
	displayTable string
	kind         joinKind
	col          string  // display: probed column (original case)
	typ          ColType // its type (probeKey)
	label        string  // display: PRIMARY KEY / UNIQUE / INDEX / COMPOSITE INDEX / ORDERED INDEX
	hashIdx      map[cell.Cell][]int
	uniqMap      map[cell.Cell]int // unique column's map, or the table's pkMap
	comp         *compositeIndex
	outer        compiledExpr // evaluated over the outer frames
	on           compiledExpr // full ON condition over outer + new frame
	estRows      int          // plan-time row count, for EXPLAIN
}

// projStep is one projection item: a compiled expression, or a star
// expansion over the listed frame indexes (expr == nil).
type projStep struct {
	expr   compiledExpr
	frames []int
}

// orderKey is one ORDER BY term, bound at plan time (bindOrderBy) to
// exactly one source: an expression over the joined rows, or — expr ==
// nil — the output column outCol.
type orderKey struct {
	expr   compiledExpr
	desc   bool
	outCol int
}

type tableSize struct {
	t     *table
	class int
}

// sizeClass buckets a row count by powers of two: plans are revalidated
// when a referenced table's class changes, so cost choices track growth
// without replanning on every write.
func sizeClass(n int) int { return bits.Len(uint(n)) }

// SelectPlan is a fully compiled SELECT — or the SELECT of the rows an
// UPDATE or DELETE writes, or an INSERT's values (buildPlan). It is
// immutable after construction, but for its size hint, and safe for
// concurrent execution; all other mutable state lives in the
// per-execution execCtx.
type SelectPlan struct {
	stmt      *SelectStmt
	epoch     uint64
	sizes     []tableSize
	frames    []planFrame
	need      []colMask // per frame: the columns the plan reads (planFrame.need)
	base      *table
	baseTable string // display name (From.Table)
	access    accessPath
	joins     []joinPlan
	where     compiledExpr // nil when no WHERE
	aggregate bool
	distinct  bool
	// countOnly: the select list is COUNT(*) alone, ungrouped, so the rows
	// are counted as they stream by, never collected.
	countOnly bool
	// windowed: no WHERE, join, DISTINCT, grouping or sort stands between
	// the access path and the output, so each base entry is one output row
	// and OFFSET skips entries without materializing them.
	windowed bool

	cols     []string   // result header: statement and schema only (R2)
	proj     []projStep // an aggregate plan's are all expressions, read per group
	orderBy  []orderKey
	sortElim bool
	limit    compiledExpr // nil if absent
	offset   compiledExpr // nil if absent

	// Aggregate plans: every aggregate call of the output terms and HAVING,
	// the GROUP BY keys and HAVING.
	aggs    []aggCall
	groupBy []compiledExpr
	having  compiledExpr // nil if absent

	// Writes: the target column slots (INSERT's column list, UPDATE's SET
	// columns) and their values, one row per VALUES row for INSERT and the
	// one SET row for UPDATE.
	setCols []int
	values  [][]compiledExpr

	// lastRows is the row count of the plan's last plainRows run, at most
	// maxRowsHint: plans are cached, so it sizes the next run's result.
	lastRows atomic.Int32
}

// maxRowsHint caps the result size a plan presizes from its last run.
const maxRowsHint = 4096

// valid reports whether the plan may still be executed: same DDL epoch
// and unchanged size classes for every referenced table.
func (p *SelectPlan) valid(db *DB) bool {
	if p.epoch != db.ddlEpoch {
		return false
	}
	for _, s := range p.sizes {
		if sizeClass(s.t.alive) != s.class {
			return false
		}
	}
	return true
}

// errStopIteration aborts row production once LIMIT is satisfied.
var errStopIteration = errors.New("rdb: stop iteration")

// slab hands out fixed-width slices cut from chunks that start at one
// row (a point lookup allocates exactly its row) and double, so a
// result of n rows costs O(log n) allocations instead of n. Each slice
// is capped at its width: appending to one row never reaches the next.
type slab[T any] struct {
	free []T
	rows int // rows in the newest chunk
}

func (s *slab[T]) cut(width int) []T { return s.cutUpTo(width, math.MaxInt) }

// reserve makes the first chunk hold rows rows, so a result whose size
// is known ahead costs one allocation.
func (s *slab[T]) reserve(rows, width int) {
	if rows > 0 && width > 0 {
		s.rows = rows
		s.free = make([]T, rows*width)
	}
}

// cutUpTo is cut from chunks that stop doubling at most rows.
func (s *slab[T]) cutUpTo(width, most int) []T {
	if len(s.free) < width {
		s.rows = min(max(1, 2*s.rows), most)
		s.free = make([]T, s.rows*width)
	}
	out := s.free[:width:width]
	s.free = s.free[width:]
	return out
}

// execPlan runs a compiled plan. The caller must hold at least a read
// lock on db.mu. es collects per-operator actuals when non-nil
// (EXPLAIN ANALYZE, traced queries, the flight recorder); the hot path
// passes nil and pays only nil checks.
func (db *DB) execPlan(p *SelectPlan, args []cell.Cell, es *execStats) (*Rows, error) {
	c := &execCtx{rows: make([]Row, len(p.frames)), need: p.need, args: args, stats: es}
	limit, offset, hasLimit, err := p.evalLimits(c)
	if err != nil {
		return nil, err
	}
	db.countJoinStats(p)
	var out *Rows
	var keys [][]cell.Cell
	if p.aggregate {
		out, err = db.aggregateRows(p, c)
	} else {
		if p.windowed {
			c.skip, offset = offset, 0
		}
		// LIMIT pushdown: stop producing once offset+limit rows exist, valid
		// when no sort (or an index-order scan) and no DISTINCT reshuffle.
		stopAt := int64(-1)
		if hasLimit && !p.distinct && !p.needSort() {
			stopAt = offset + limit
		}
		out, keys, err = db.plainRows(p, c, stopAt)
	}
	if err != nil {
		return nil, err
	}
	if p.distinct {
		out = distinctRows(out)
	}
	if p.needSort() {
		if err := sortCompiled(p, out, keys); err != nil {
			return nil, err
		}
	}
	if p.sortElim {
		db.stats.sortsEliminated.Add(1)
	}
	offset = min(offset, int64(len(out.Data)))
	out.Data = out.Data[offset:]
	if hasLimit && limit < int64(len(out.Data)) {
		out.Data = out.Data[:limit]
	}
	return out, nil
}

func (p *SelectPlan) needSort() bool { return len(p.orderBy) > 0 && !p.sortElim }

// produce drives the access path and the joins; joinStep calls emit for
// every row combination that survives the WHERE filter.
func (db *DB) produce(p *SelectPlan, c *execCtx, emit func() error) error {
	baseEach := func(_ int, r Row) error {
		c.rows[0] = r
		return db.joinStep(p, c, 0, emit)
	}
	if c.stats == nil {
		return db.runBase(p, c, baseEach)
	}
	t0 := time.Now()
	err := db.runBase(p, c, func(id int, r Row) error {
		c.stats.base.rowsOut++
		return baseEach(id, r)
	})
	c.stats.base.elapsed = time.Since(t0)
	return err
}

// filter passes the current row combination to emit if it satisfies
// the WHERE clause.
func (p *SelectPlan) filter(c *execCtx, emit func() error) error {
	if p.where != nil {
		if c.stats != nil {
			c.stats.filterIn++
		}
		v, err := p.where(c)
		if err != nil || !isTrue(v) {
			return err
		}
		if c.stats != nil {
			c.stats.filterOut++
		}
	}
	return emit()
}

// plainRows projects the produced rows. keys, parallel to the rows, holds
// the ORDER BY key values when a sort will follow; stopAt >= 0 ends
// production once that many rows exist. The rows, their slab and the
// keys are sized by the plan's last run.
func (db *DB) plainRows(p *SelectPlan, c *execCtx, stopAt int64) (*Rows, [][]cell.Cell, error) {
	out := &Rows{Columns: p.cols}
	wantKeys := p.needSort() && !p.distinct
	var keys [][]cell.Cell
	var rowSlab, keySlab slab[cell.Cell]
	hint := int64(p.lastRows.Load())
	if stopAt >= 0 {
		hint = min(hint, stopAt)
	}
	if hint > 0 {
		out.Data = make([][]cell.Cell, 0, hint)
		rowSlab.reserve(int(hint), len(p.cols))
		if wantKeys {
			keys = make([][]cell.Cell, 0, hint)
			keySlab.reserve(int(hint), len(p.orderBy))
		}
	}
	err := db.produce(p, c, func() error {
		row, err := p.project(c, &rowSlab)
		if err != nil {
			return err
		}
		if wantKeys {
			kv := keySlab.cut(len(p.orderBy))
			for k := range p.orderBy {
				ok := &p.orderBy[k]
				if ok.expr == nil {
					kv[k] = row[ok.outCol]
				} else if kv[k], err = ok.expr(c); err != nil {
					return err
				}
			}
			keys = append(keys, kv)
		}
		out.Data = append(out.Data, row)
		if stopAt >= 0 && int64(len(out.Data)) >= stopAt {
			return errStopIteration
		}
		return nil
	})
	if err != nil && err != errStopIteration {
		return nil, nil, err
	}
	p.lastRows.Store(int32(min(len(out.Data), maxRowsHint)))
	return out, keys, nil
}

// aggCall is one aggregate call of an aggregate plan: its function and
// its argument (nil for COUNT(*)).
type aggCall struct {
	fn  *FuncExpr
	arg compiledExpr
}

// accum folds one aggregate call's inputs within one group.
type accum struct {
	n     int64 // inputs folded: rows for COUNT(*), non-NULL values otherwise
	isum  int64
	fsum  float64
	float bool      // a REAL was summed: SUM is fsum
	best  cell.Cell // MIN/MAX so far
}

func (a *accum) add(call *aggCall, c *execCtx) error {
	if call.arg == nil {
		a.n++
		return nil
	}
	v, err := call.arg(c)
	if err != nil || v.IsNull() {
		return err
	}
	switch name := call.fn.Name; name {
	case "SUM", "AVG":
		switch v.Kind {
		case cell.KInt:
			a.isum += v.Int()
			a.fsum += float64(v.Int())
		case cell.KFloat:
			a.float = true
			a.fsum += v.Float()
		default:
			return fmt.Errorf("rdb: %s over non-numeric value %s", name, typeName(v))
		}
	case "MIN", "MAX":
		if a.n == 0 {
			a.best = v
			break
		}
		cmp, err := compare(v, a.best)
		if err != nil {
			return err
		}
		if (name == "MIN" && cmp < 0) || (name == "MAX" && cmp > 0) {
			a.best = v
		}
	}
	a.n++
	return nil
}

func (a *accum) result(name string) cell.Cell {
	switch {
	case name == "COUNT":
		return cell.Int(a.n)
	case a.n == 0:
		return cell.Cell{}
	case name == "AVG":
		return cell.Float(a.fsum / float64(a.n))
	case name == "SUM" && a.float:
		return cell.Float(a.fsum)
	case name == "SUM":
		return cell.Int(a.isum)
	}
	return a.best
}

// aggOutput is the group an aggregate plan is outputting: each aggregate
// call's value for it, read by the call's compiled slot (compileFunc).
type aggOutput struct {
	calls []aggCall
	vals  []cell.Cell
}

// aggGroup is one group: its first row combination and one accumulator
// per aggregate call.
type aggGroup struct {
	first []Row // nil until a row arrives
	acc   []accum
}

// aggregateRows folds the produced row combinations into groups, then
// outputs each group that passes HAVING. An output term reads its
// aggregate calls' values (compileFunc) and, for everything else, the
// group's first row combination — an all-NULL one for the empty group an
// ungrouped query still outputs (R4).
func (db *DB) aggregateRows(p *SelectPlan, c *execCtx) (*Rows, error) {
	if p.countOnly {
		n := int64(p.base.alive)
		if p.access.kind != accessCount {
			n = 0
			if err := db.produce(p, c, func() error { n++; return nil }); err != nil {
				return nil, err
			}
		}
		row := make([]cell.Cell, len(p.cols))
		for i := range row {
			row[i] = cell.Int(n)
		}
		return &Rows{Columns: p.cols, Data: [][]cell.Cell{row}}, nil
	}
	var groups []*aggGroup
	byKey := map[string]*aggGroup{}
	group := func(key []byte) *aggGroup {
		g := byKey[string(key)]
		if g == nil {
			g = &aggGroup{acc: make([]accum, len(p.aggs))}
			byKey[string(key)] = g
			groups = append(groups, g)
		}
		return g
	}
	if len(p.groupBy) == 0 {
		group(nil) // output even if no row arrives (R4)
	}
	var key []byte
	err := db.produce(p, c, func() error {
		key = key[:0]
		for _, k := range p.groupBy {
			v, err := k(c)
			if err != nil {
				return err
			}
			key = appendKey(key, v)
		}
		g := group(key)
		if g.first == nil {
			g.first = slices.Clone(c.rows)
		}
		for i := range p.aggs {
			if err := g.acc[i].add(&p.aggs[i], c); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Rows{Columns: p.cols}
	var rows slab[cell.Cell]
	c.agg = &aggOutput{calls: p.aggs, vals: make([]cell.Cell, len(p.aggs))}
	for _, g := range groups {
		for i := range p.aggs {
			c.agg.vals[i] = g.acc[i].result(p.aggs[i].fn.Name)
		}
		c.rows = g.first
		if c.rows == nil {
			c.rows = make([]Row, len(p.frames))
		}
		if p.having != nil {
			v, err := p.having(c)
			if err != nil {
				return nil, err
			}
			if !isTrue(v) {
				continue
			}
		}
		row, err := p.project(c, &rows)
		if err != nil {
			return nil, err
		}
		out.Data = append(out.Data, row)
	}
	return out, nil
}

func (p *SelectPlan) evalLimits(c *execCtx) (limit, offset int64, hasLimit bool, err error) {
	if p.offset != nil {
		v, err := p.offset(c)
		if err != nil {
			return 0, 0, false, err
		}
		if v.Kind != cell.KInt || v.Int() < 0 {
			return 0, 0, false, errors.New("rdb: OFFSET must be a non-negative integer")
		}
		offset = v.Int()
	}
	if p.limit != nil {
		v, err := p.limit(c)
		if err != nil {
			return 0, 0, false, err
		}
		if v.Kind != cell.KInt || v.Int() < 0 {
			return 0, 0, false, errors.New("rdb: LIMIT must be a non-negative integer")
		}
		limit = v.Int()
		hasLimit = true
	}
	return limit, offset, hasLimit, nil
}

func (db *DB) countJoinStats(p *SelectPlan) {
	for i := range p.joins {
		if p.joins[i].kind == jkLoop {
			db.stats.loopJoins.Add(1)
		} else {
			db.stats.indexedJoins.Add(1)
		}
	}
}

// foldBounds evaluates the bound candidates and keeps the tightest lower
// and upper bound. A NULL bound is skipped: its conjunct is NULL for
// every row, and the residual WHERE says so.
func foldBounds(c *execCtx, los, his []boundCand) (lo, hi rangeBound, err error) {
	for _, b := range los {
		v, err := b.val(c)
		if err != nil {
			return lo, hi, err
		}
		if !v.IsNull() {
			tightenLo(&lo, v, b.inclusive)
		}
	}
	for _, b := range his {
		v, err := b.val(c)
		if err != nil {
			return lo, hi, err
		}
		if !v.IsNull() {
			tightenHi(&hi, v, b.inclusive)
		}
	}
	return lo, hi, nil
}

// rowOf reads the row in slot id of frame fi's table for the plan: an
// evicted row is faulted in with the columns the plan reads from that
// frame decoded, and a fault that fails is the query's error. A deleted
// slot is nil.
func (c *execCtx) rowOf(t *table, fi, id int) (Row, error) {
	return t.readRow(id, c.need[fi], &c.faults)
}

// visit feeds the live base row in slot id to each. While the execution
// still owes OFFSET entries (c.skip, set only for windowed plans) it
// counts the slot off instead and touches no row.
func (c *execCtx) visit(t *table, id int, each func(int, Row) error) error {
	if c.skip > 0 {
		if t.rows[id] != nil {
			c.skip--
		}
		return nil
	}
	r, err := c.rowOf(t, 0, id)
	if r == nil || err != nil {
		return err
	}
	return each(id, r)
}

// runBase drives the plan's base access path. A key or bound that fails
// to evaluate at bind time is the query's error (R3). Rows come out in
// row-id order, as from a scan, whatever the path — so ties under ORDER BY,
// a LIMIT's cut and a group's first row do not depend on which indexes
// exist — unless the plan asked for the index's own order (sortElim),
// where equal keys still follow row id. each gets every row with its slot
// id, the handle UPDATE and DELETE write through.
func (db *DB) runBase(p *SelectPlan, c *execCtx, each func(int, Row) error) error {
	a := &p.access
	t := p.base
	byID := func(ids []int) error {
		for _, id := range ids {
			if err := c.visit(t, id, each); err != nil {
				return err
			}
		}
		return nil
	}
	switch a.kind {
	case accessPK, accessUnique, accessHash, accessSnapPK:
		v, err := a.eq[0](c)
		if err != nil {
			return err
		}
		v = probeKey(v, a.typ)
		db.stats.pointLookups.Add(1)
		if c.stats != nil {
			c.stats.base.probes++
		}
		switch a.kind {
		case accessPK, accessUnique:
			if id, ok := a.uniqMap[v]; ok {
				return c.visit(t, id, each)
			}
		case accessHash:
			return byID(a.hashIdx[v])
		case accessSnapPK:
			// Snapshot point read: the frozen view carries no pkMap, but an
			// int-keyed table addresses its record store directly by primary
			// key, so one versioned fetch stands in for a scan. The row has
			// no slot (-1); nothing writes through a snapshot.
			if v.Kind == cell.KInt && t.fetch != nil {
				r, err := t.fetch(pkRecID(v.Int()), t.snapSeq, c.need[0], &c.faults)
				if r == nil || err != nil {
					return err
				}
				return each(-1, r)
			}
		}
		return nil
	case accessComposite:
		prefix := make([]cell.Cell, len(a.eq))
		for i, e := range a.eq {
			v, err := e(c)
			if err != nil {
				return err
			}
			prefix[i] = v
		}
		lo, hi, err := foldBounds(c, a.los, a.his)
		if err != nil {
			return err
		}
		var start, end int
		if lo.set || hi.set {
			start, end = a.comp.rangeSegment(prefix, lo, hi)
		} else {
			start, end = a.comp.eqRange(prefix)
		}
		if len(a.eq) == len(a.comp.cols) {
			db.stats.pointLookups.Add(1)
		} else {
			db.stats.rangeScans.Add(1)
		}
		if c.stats != nil {
			c.stats.base.probes++
		}
		if !p.sortElim {
			return byID(a.comp.ids(start, end))
		}
		if a.reverse {
			return iterCompositeReverse(a.comp, start, end, c, t, each)
		}
		for _, e := range a.comp.entries[start:end] {
			if err := c.visit(t, e.id, each); err != nil {
				return err
			}
		}
		return nil
	}
	// Full scan: every live row, in row-id order.
	db.stats.fullScans.Add(1)
	for id := range t.rows {
		if err := c.visit(t, id, each); err != nil {
			return err
		}
	}
	return nil
}

// iterCompositeReverse walks entries[start:end] back to front by
// equal-key group, emitting each group in forward (ascending row-id)
// order — the exact row order a stable descending sort produces.
func iterCompositeReverse(ix *compositeIndex, start, end int, c *execCtx, t *table, each func(int, Row) error) error {
	n := len(ix.cols)
	i := end
	for i > start {
		j := i
		for j > start && compareTuplePrefix(ix.entries[j-1].key, ix.entries[i-1].key, n) == 0 {
			j--
		}
		for k := j; k < i; k++ {
			if err := c.visit(t, ix.entries[k].id, each); err != nil {
				return err
			}
		}
		i = j
	}
	return nil
}

// joinStep recursively extends the current row combination with join
// ji's matches and, at full depth, passes it through the WHERE filter
// to emit. Rows are produced in lexicographic join order. When analysis
// is active it books rows-in and inclusive time for the operator before
// delegating to joinStepRun.
func (db *DB) joinStep(p *SelectPlan, c *execCtx, ji int, emit func() error) error {
	if c.stats == nil {
		return db.joinStepRun(p, c, ji, emit)
	}
	if ji == len(p.joins) {
		return p.filter(c, emit)
	}
	jc := &c.stats.joins[ji]
	jc.rowsIn++
	t0 := time.Now()
	err := db.joinStepRun(p, c, ji, emit)
	jc.elapsed += time.Since(t0)
	return err
}

func (db *DB) joinStepRun(p *SelectPlan, c *execCtx, ji int, emit func() error) error {
	if ji == len(p.joins) {
		return p.filter(c, emit)
	}
	j := &p.joins[ji]
	fi := ji + 1
	matched := false
	try := func(id int) error {
		r, err := c.rowOf(j.tbl, fi, id)
		if r == nil || err != nil {
			return err
		}
		c.rows[fi] = r
		v, err := j.on(c)
		if err != nil {
			return err
		}
		if !isTrue(v) {
			return nil
		}
		matched = true
		if c.stats != nil {
			c.stats.joins[ji].rowsOut++
		}
		return db.joinStep(p, c, ji+1, emit)
	}
	if j.kind != jkLoop {
		ov, err := j.outer(c)
		if err != nil {
			return err
		}
		ov = probeKey(ov, j.typ)
		if c.stats != nil {
			c.stats.joins[ji].probes++
		}
		switch j.kind {
		case jkPK, jkUnique:
			if id, ok := j.uniqMap[ov]; ok {
				if err := try(id); err != nil {
					return err
				}
			}
		case jkHash, jkComposite:
			ids := j.hashIdx[ov]
			if j.kind == jkComposite {
				ids = j.comp.ids(j.comp.eqRange([]cell.Cell{ov}))
			}
			for _, id := range ids {
				if err := try(id); err != nil {
					return err
				}
			}
		}
	} else {
		for id := range j.tbl.rows {
			if err := try(id); err != nil {
				return err
			}
		}
	}
	if !matched && j.left {
		c.rows[fi] = nil
		if c.stats != nil {
			c.stats.joins[ji].rowsOut++ // null-extended LEFT JOIN row
		}
		if err := db.joinStep(p, c, ji+1, emit); err != nil {
			return err
		}
	}
	c.rows[fi] = nil
	return nil
}

// project builds one output row from the current row combination, in a
// slice cut from the execution's slab (the output width is fixed at
// compile time).
func (p *SelectPlan) project(c *execCtx, rows *slab[cell.Cell]) ([]cell.Cell, error) {
	row := rows.cut(len(p.cols))[:0]
	for i := range p.proj {
		ps := &p.proj[i]
		if ps.expr != nil {
			v, err := ps.expr(c)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			continue
		}
		for _, fi := range ps.frames {
			tbl := p.frames[fi].tbl
			r := c.rows[fi]
			if r == nil {
				for range tbl.cols {
					row = append(row, cell.Cell{})
				}
			} else {
				row = append(row, r...)
			}
		}
	}
	return row, nil
}

// sortCompiled stable-sorts the output by the ORDER BY keys, NULLs
// first ascending. keys is parallel to out.Data; it is nil for DISTINCT
// and aggregate results, whose terms all name output columns.
func sortCompiled(p *SelectPlan, out *Rows, keys [][]cell.Cell) error {
	if keys == nil {
		n := len(p.orderBy)
		keys = make([][]cell.Cell, len(out.Data))
		flat := make([]cell.Cell, len(out.Data)*n)
		for i, row := range out.Data {
			keys[i] = flat[i*n : (i+1)*n]
			for k := range p.orderBy {
				keys[i][k] = row[p.orderBy[k].outCol]
			}
		}
	}
	return stableSortByKeys(out, keys, p.orderBy)
}

func stableSortByKeys(out *Rows, keys [][]cell.Cell, terms []orderKey) error {
	n := len(out.Data)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var sortErr error
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := idx[x], idx[y]
		for k := range terms {
			va, vb := keys[a][k], keys[b][k]
			if va.IsNull() && vb.IsNull() {
				continue
			}
			if va.IsNull() {
				return !terms[k].desc
			}
			if vb.IsNull() {
				return terms[k].desc
			}
			c, err := compare(va, vb)
			if err != nil {
				sortErr = err
				return false
			}
			if c == 0 {
				continue
			}
			if terms[k].desc {
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
