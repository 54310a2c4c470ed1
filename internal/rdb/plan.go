package rdb

import (
	"errors"
	"math/bits"
	"sort"
	"time"
)

// This file holds the physical plan representation and its executor.
// A SELECT is compiled once (planner.go) into a SelectPlan — access
// path, join strategies, filter, projection, sort keys and limits all
// resolved to closures and index pointers — and executed many times
// with only the '?' parameters changing. The AST interpreter in
// exec.go is retained verbatim as the reference implementation
// (QueryInterpreted) for differential testing.

// accessOp enumerates the base-table access operators.
type accessOp int

const (
	accessScan      accessOp = iota // full table scan
	accessPK                        // primary-key point lookup
	accessUnique                    // unique-column point lookup
	accessHash                      // hash-index bucket lookup
	accessRange                     // ordered-index range scan (single column)
	accessComposite                 // composite-index prefix/range scan
	accessSnapPK                    // record-store point fetch at a snapshot sequence
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
	kind      accessOp
	col       string // display column for point/range paths (original case)
	label     string // display label for point paths: PRIMARY KEY / UNIQUE / INDEX
	hashIdx   map[Value][]int
	uniqMap   map[Value]int
	ord       *orderedIndex
	comp      *compositeIndex
	eq        []compiledExpr // point value, or composite equality prefix
	los       []boundCand
	his       []boundCand
	rangeCol  string // display: bounded column of a composite range
	orderWalk bool   // full index walk chosen purely for ORDER BY
	reverse   bool   // DESC index-order scan (sort elimination)
	est       float64
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
	col          string // display: probed column (original case)
	label        string // display: PRIMARY KEY / UNIQUE / INDEX / COMPOSITE INDEX
	hashIdx      map[Value][]int
	uniqMap      map[Value]int
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

// orderKey is one compiled ORDER BY term with the interpreter's
// output-column fallback resolved at plan time.
type orderKey struct {
	expr        compiledExpr
	desc        bool
	outCol      int   // output column fallback; -1 when none
	errFallback error // returned when expr fails and no fallback exists
}

type tableSize struct {
	t     *table
	class int
}

// sizeClass buckets a row count by powers of two: plans are revalidated
// when a referenced table's class changes, so cost choices track growth
// without replanning on every write.
func sizeClass(n int) int { return bits.Len(uint(n)) }

// SelectPlan is a fully compiled SELECT. It is immutable after
// construction and safe for concurrent execution; all mutable state
// lives in the per-execution execCtx.
type SelectPlan struct {
	stmt      *SelectStmt
	epoch     uint64
	sizes     []tableSize
	frames    []planFrame
	base      *table
	baseTable string // display name (From.Table)
	access    accessPath
	joins     []joinPlan
	where     compiledExpr // nil when no WHERE
	aggregate bool
	distinct  bool

	// Non-aggregate projection and ordering:
	cols      []string // output columns when rows survive the WHERE
	colsEmpty []string // interpreter's star quirk on empty results
	hasStar   bool
	proj      []projStep
	orderBy   []orderKey
	sortElim  bool
	limit     compiledExpr // nil if absent
	offset    compiledExpr // nil if absent
}

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

func (s *slab[T]) cut(width int) []T {
	if len(s.free) < width {
		s.rows = max(1, 2*s.rows)
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
func (db *DB) execPlan(p *SelectPlan, args []Value, es *execStats) (*Rows, error) {
	if p.aggregate {
		return db.execPlanAggregate(p, args, es)
	}
	c := &execCtx{rows: make([]Row, len(p.frames)), args: args, stats: es}
	limit, offset, hasLimit, err := p.evalLimits(c)
	if err != nil {
		return nil, err
	}
	db.countJoinStats(p)
	needSort := len(p.orderBy) > 0 && !p.sortElim
	var keys [][]Value
	var rowSlab, keySlab slab[Value]
	// LIMIT pushdown: stop producing once offset+limit rows exist, valid
	// when no sort (or an index-order scan) and no DISTINCT reshuffle.
	// A star projection still needs one row to expand column names.
	stopAt := int64(-1)
	if hasLimit && !p.distinct && !needSort {
		stopAt = offset + limit
		if p.hasStar && stopAt == 0 {
			stopAt = 1
		}
	}
	out := &Rows{}
	emit := func() error {
		if p.where != nil {
			if c.stats != nil {
				c.stats.filterIn++
			}
			v, err := p.where(c)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
			if c.stats != nil {
				c.stats.filterOut++
			}
		}
		row, err := p.project(c, &rowSlab)
		if err != nil {
			return err
		}
		if needSort && !p.distinct {
			kv := keySlab.cut(len(p.orderBy))
			for k := range p.orderBy {
				ok := &p.orderBy[k]
				v, err := ok.expr(c)
				if err != nil {
					if ok.outCol < 0 {
						return ok.errFallback
					}
					v = row[ok.outCol]
				}
				kv[k] = v
			}
			keys = append(keys, kv)
		}
		out.Data = append(out.Data, row)
		if stopAt >= 0 && int64(len(out.Data)) >= stopAt {
			return errStopIteration
		}
		return nil
	}
	baseEach := func(r Row) error {
		c.rows[0] = r
		return db.joinStep(p, c, 0, emit)
	}
	if c.stats != nil {
		inner := baseEach
		baseEach = func(r Row) error {
			c.stats.base.rowsOut++
			return inner(r)
		}
		t0 := time.Now()
		err = db.runBase(p, c, baseEach)
		c.stats.base.elapsed = time.Since(t0)
	} else {
		err = db.runBase(p, c, baseEach)
	}
	if err != nil && err != errStopIteration {
		return nil, err
	}
	if len(out.Data) == 0 {
		out.Columns = p.colsEmpty
	} else {
		out.Columns = p.cols
	}
	if p.distinct {
		out = distinctRows(out)
	}
	if needSort {
		if err := sortCompiled(p, out, keys); err != nil {
			return nil, err
		}
	}
	if p.sortElim {
		db.stats.sortsEliminated.Add(1)
	}
	if offset > int64(len(out.Data)) {
		offset = int64(len(out.Data))
	}
	out.Data = out.Data[offset:]
	if hasLimit && limit < int64(len(out.Data)) {
		out.Data = out.Data[:limit]
	}
	return out, nil
}

// execPlanAggregate runs an aggregate plan: the compiled access path,
// joins and filter produce environments, and the aggregate tail
// (grouping, HAVING, output-column ordering) is shared verbatim with
// the interpreter.
func (db *DB) execPlanAggregate(p *SelectPlan, args []Value, es *execStats) (*Rows, error) {
	c := &execCtx{rows: make([]Row, len(p.frames)), args: args, stats: es}
	db.countJoinStats(p)
	var envs []*env
	var frameSlab slab[frame]
	var envSlab slab[env]
	emit := func() error {
		if p.where != nil {
			if c.stats != nil {
				c.stats.filterIn++
			}
			v, err := p.where(c)
			if err != nil {
				return err
			}
			if !truthy(v) {
				return nil
			}
			if c.stats != nil {
				c.stats.filterOut++
			}
		}
		fs := frameSlab.cut(len(p.frames))
		for i, pf := range p.frames {
			fs[i] = frame{name: pf.name, tbl: pf.tbl, row: c.rows[i]}
		}
		e := &envSlab.cut(1)[0]
		e.frames = fs
		envs = append(envs, e)
		return nil
	}
	baseEach := func(r Row) error {
		c.rows[0] = r
		return db.joinStep(p, c, 0, emit)
	}
	var err error
	if c.stats != nil {
		inner := baseEach
		baseEach = func(r Row) error {
			c.stats.base.rowsOut++
			return inner(r)
		}
		t0 := time.Now()
		err = db.runBase(p, c, baseEach)
		c.stats.base.elapsed = time.Since(t0)
	} else {
		err = db.runBase(p, c, baseEach)
	}
	if err != nil {
		return nil, err
	}
	out, err := evalAggregateSelect(p.stmt, envs, args)
	if err != nil {
		return nil, err
	}
	if p.stmt.Distinct {
		out = distinctRows(out)
	}
	if len(p.stmt.OrderBy) > 0 {
		if err := orderRows(p.stmt, out, envs, true, args); err != nil {
			return nil, err
		}
	}
	if err := applyLimitOffset(p.stmt, out, args); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *SelectPlan) evalLimits(c *execCtx) (limit, offset int64, hasLimit bool, err error) {
	if p.offset != nil {
		v, err := p.offset(c)
		if err != nil {
			return 0, 0, false, err
		}
		n, ok := v.(int64)
		if !ok || n < 0 {
			return 0, 0, false, errors.New("rdb: OFFSET must be a non-negative integer")
		}
		offset = n
	}
	if p.limit != nil {
		v, err := p.limit(c)
		if err != nil {
			return 0, 0, false, err
		}
		n, ok := v.(int64)
		if !ok || n < 0 {
			return 0, 0, false, errors.New("rdb: LIMIT must be a non-negative integer")
		}
		limit = n
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
// and upper bound. Bounds that fail to evaluate or evaluate to NULL are
// skipped — exactly what the interpreter's rangeSide does — leaving a
// wider candidate set for the residual WHERE to filter.
func foldBounds(c *execCtx, los, his []boundCand) (rangeBound, rangeBound) {
	var lo, hi rangeBound
	for _, b := range los {
		v, err := b.val(c)
		if err != nil || v == nil {
			continue
		}
		tightenLo(&lo, v, b.inclusive)
	}
	for _, b := range his {
		v, err := b.val(c)
		if err != nil || v == nil {
			continue
		}
		tightenHi(&hi, v, b.inclusive)
	}
	return lo, hi
}

// scanAll feeds every live row to each, in row-id order.
func (db *DB) scanAll(t *table, each func(Row) error) error {
	db.stats.fullScans.Add(1)
	for id := range t.rows {
		r := t.rowAt(id)
		if r == nil {
			continue
		}
		if err := each(r); err != nil {
			return err
		}
	}
	return nil
}

// runBase drives the plan's base access path. When a bind-time value
// fails to evaluate, it degrades to a full scan so the residual WHERE
// reproduces the interpreter's behavior (including its errors).
func (db *DB) runBase(p *SelectPlan, c *execCtx, each func(Row) error) error {
	a := &p.access
	t := p.base
	switch a.kind {
	case accessPK:
		v, err := a.eq[0](c)
		if err != nil {
			return db.scanAll(t, each)
		}
		db.stats.pointLookups.Add(1)
		if c.stats != nil {
			c.stats.base.probes++
		}
		if id, ok := t.pkMap[v]; ok {
			if r := t.rowAt(id); r != nil {
				return each(r)
			}
		}
		return nil
	case accessUnique:
		v, err := a.eq[0](c)
		if err != nil {
			return db.scanAll(t, each)
		}
		db.stats.pointLookups.Add(1)
		if c.stats != nil {
			c.stats.base.probes++
		}
		if id, ok := a.uniqMap[v]; ok {
			if r := t.rowAt(id); r != nil {
				return each(r)
			}
		}
		return nil
	case accessHash:
		v, err := a.eq[0](c)
		if err != nil {
			return db.scanAll(t, each)
		}
		db.stats.pointLookups.Add(1)
		if c.stats != nil {
			c.stats.base.probes++
		}
		for _, id := range a.hashIdx[v] {
			if r := t.rowAt(id); r != nil {
				if err := each(r); err != nil {
					return err
				}
			}
		}
		return nil
	case accessRange:
		lo, hi := foldBounds(c, a.los, a.his)
		if !lo.set && !hi.set && !a.orderWalk {
			// Every bound evaluated to NULL: the interpreter scans here.
			return db.scanAll(t, each)
		}
		db.stats.rangeScans.Add(1)
		if c.stats != nil {
			c.stats.base.probes++
		}
		start, end := a.ord.bounds(lo, hi)
		if a.reverse {
			return iterOrderedReverse(a.ord.entries, start, end, t, each)
		}
		for _, e := range a.ord.entries[start:end] {
			if r := t.rowAt(e.id); r != nil {
				if err := each(r); err != nil {
					return err
				}
			}
		}
		return nil
	case accessComposite:
		prefix := make([]Value, len(a.eq))
		for i, e := range a.eq {
			v, err := e(c)
			if err != nil {
				return db.scanAll(t, each)
			}
			prefix[i] = v
		}
		var start, end int
		if len(a.los)+len(a.his) > 0 {
			lo, hi := foldBounds(c, a.los, a.his)
			if lo.set || hi.set {
				start, end = a.comp.rangeSegment(prefix, lo, hi)
			} else {
				start, end = a.comp.eqRange(prefix)
			}
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
		if a.reverse {
			return iterCompositeReverse(a.comp, start, end, t, each)
		}
		for _, e := range a.comp.entries[start:end] {
			if r := t.rowAt(e.id); r != nil {
				if err := each(r); err != nil {
					return err
				}
			}
		}
		return nil
	case accessSnapPK:
		// Snapshot point read: the frozen view carries no pkMap, but an
		// int-keyed table addresses its record store directly by primary
		// key, so one versioned fetch replaces the interpreter's scan.
		v, err := a.eq[0](c)
		if err != nil {
			return db.scanAll(t, each)
		}
		db.stats.pointLookups.Add(1)
		if c.stats != nil {
			c.stats.base.probes++
		}
		iv, ok := v.(int64)
		if !ok || t.fetch == nil {
			return nil
		}
		if r, ok := t.fetch(pkRecID(iv), t.snapSeq); ok {
			return each(r)
		}
		return nil
	}
	return db.scanAll(t, each)
}

// iterOrderedReverse walks entries[start:end] back to front by
// equal-value group, emitting each group in forward (ascending row-id)
// order — the exact row order a stable descending sort produces.
func iterOrderedReverse(entries []ordEntry, start, end int, t *table, each func(Row) error) error {
	i := end
	for i > start {
		j := i
		for j > start && compareNullable(entries[j-1].val, entries[i-1].val) == 0 {
			j--
		}
		for k := j; k < i; k++ {
			if r := t.rowAt(entries[k].id); r != nil {
				if err := each(r); err != nil {
					return err
				}
			}
		}
		i = j
	}
	return nil
}

func iterCompositeReverse(ix *compositeIndex, start, end int, t *table, each func(Row) error) error {
	n := len(ix.cols)
	i := end
	for i > start {
		j := i
		for j > start && compareTuplePrefix(ix.entries[j-1].key, ix.entries[i-1].key, n) == 0 {
			j--
		}
		for k := j; k < i; k++ {
			if r := t.rowAt(ix.entries[k].id); r != nil {
				if err := each(r); err != nil {
					return err
				}
			}
		}
		i = j
	}
	return nil
}

// joinStep recursively extends the current row combination with join
// ji's matches and calls emit at full depth. Production order matches
// the interpreter's breadth-wise join loops exactly (lexicographic in
// join order). When analysis is active it books rows-in and inclusive
// time for the operator before delegating to joinStepRun.
func (db *DB) joinStep(p *SelectPlan, c *execCtx, ji int, emit func() error) error {
	if c.stats == nil {
		return db.joinStepRun(p, c, ji, emit)
	}
	if ji == len(p.joins) {
		return emit()
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
		return emit()
	}
	j := &p.joins[ji]
	fi := ji + 1
	matched := false
	try := func(r Row) error {
		c.rows[fi] = r
		v, err := j.on(c)
		if err != nil {
			return err
		}
		if !truthy(v) {
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
		if c.stats != nil {
			c.stats.joins[ji].probes++
		}
		switch j.kind {
		case jkPK:
			if id, ok := j.tbl.pkMap[ov]; ok {
				if r := j.tbl.rowAt(id); r != nil {
					if err := try(r); err != nil {
						return err
					}
				}
			}
		case jkUnique:
			if id, ok := j.uniqMap[ov]; ok {
				if r := j.tbl.rowAt(id); r != nil {
					if err := try(r); err != nil {
						return err
					}
				}
			}
		case jkHash:
			for _, id := range j.hashIdx[ov] {
				if r := j.tbl.rowAt(id); r != nil {
					if err := try(r); err != nil {
						return err
					}
				}
			}
		case jkComposite:
			start, end := j.comp.eqRange([]Value{ov})
			for _, e := range j.comp.entries[start:end] {
				if r := j.tbl.rowAt(e.id); r != nil {
					if err := try(r); err != nil {
						return err
					}
				}
			}
		}
	} else {
		for id := range j.tbl.rows {
			r := j.tbl.rowAt(id)
			if r == nil {
				continue
			}
			if err := try(r); err != nil {
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
func (p *SelectPlan) project(c *execCtx, rows *slab[Value]) ([]Value, error) {
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
					row = append(row, nil)
				}
			} else {
				row = append(row, r...)
			}
		}
	}
	return row, nil
}

// sortCompiled stable-sorts the output by the compiled ORDER BY keys,
// with the interpreter's NULL rules (NULLs first ascending). keys is
// parallel to out.Data; for DISTINCT queries it is nil and keys are
// taken from the output columns, as the interpreter does.
func sortCompiled(p *SelectPlan, out *Rows, keys [][]Value) error {
	n := len(out.Data)
	if keys == nil {
		keys = make([][]Value, n)
		flat := make([]Value, n*len(p.orderBy))
		for i := 0; i < n; i++ {
			kv := flat[i*len(p.orderBy) : (i+1)*len(p.orderBy)]
			for k := range p.orderBy {
				ok := &p.orderBy[k]
				if ok.outCol < 0 {
					return ok.errFallback
				}
				kv[k] = out.Data[i][ok.outCol]
			}
			keys[i] = kv
		}
	}
	return stableSortByKeys(out, keys, p.orderBy)
}

func stableSortByKeys(out *Rows, keys [][]Value, terms []orderKey) error {
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
			if va == nil && vb == nil {
				continue
			}
			if va == nil {
				return !terms[k].desc
			}
			if vb == nil {
				return terms[k].desc
			}
			c, err := compareValues(va, vb)
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
	sorted := make([][]Value, n)
	for i, j := range idx {
		sorted[i] = out.Data[j]
	}
	out.Data = sorted
	return nil
}
