package rdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo/internal/cell"
)

// Cache capacities. A WebML application's statement population is the
// closed set of descriptor queries, far below both bounds; the bounds
// exist so ad-hoc SQL (consoles, tests, fuzzing) cannot grow the caches
// without limit.
const (
	stmtCacheCap = 1024
	planCacheCap = 512
)

// DB is an embedded relational database. A DB is safe for concurrent
// use: reads take a shared lock and writes an exclusive lock. Storage
// is pluggable: the default engine keeps everything in memory;
// OpenDurable attaches a WAL + page-file engine that persists every
// commit (durable.go).
type DB struct {
	mu     sync.RWMutex
	tables map[string]*table // lower(name) -> table
	// ddlEpoch increments on every schema change (CREATE TABLE, CREATE
	// INDEX); compiled plans pin the epoch they were built
	// under and are discarded when it moves. Guarded by mu.
	ddlEpoch uint64
	// seq numbers commits; assigned under mu and carried by change-sets
	// into the engine.
	seq uint64
	// engine persists committed change-sets; never nil (memEngine by
	// default). Guarded by mu for Apply/Checkpoint/Close.
	engine    Engine
	stmtMu    sync.Mutex
	stmtCache *lruCache[string, Statement]

	planMu    sync.Mutex
	planCache *lruCache[string, *SelectPlan]

	// hooks, when set, bridge query/commit execution into an external
	// tracing system (context.go); recorder, when set, captures slow
	// queries with their analyzed plans (recorder.go). Both are atomic
	// pointers so the hot path pays one load to find them absent.
	hooks    atomic.Pointer[TraceHooks]
	recorder atomic.Pointer[queryRecorder]

	// faultObs observe the latency of every row fault the paging engine
	// serves from the page tree (metrics wiring): one per application
	// over the database. Copy-on-write behind an atomic pointer, since
	// one may be added while readers fault under the shared lock.
	faultMu  sync.Mutex
	faultObs atomic.Pointer[[]func(time.Duration)]

	stats dbStats
}

// AddFaultObserver adds fn to the functions called with the latency of
// each row fault (an evicted or uncached record materialized from the
// page store). Every observer sees every fault, so each application over
// one database times them all; adding is one-way and safe at any time.
func (db *DB) AddFaultObserver(fn func(time.Duration)) {
	db.faultMu.Lock()
	defer db.faultMu.Unlock()
	var obs []func(time.Duration)
	if old := db.faultObs.Load(); old != nil {
		obs = *old
	}
	obs = append(obs[:len(obs):len(obs)], fn)
	db.faultObs.Store(&obs)
}

// observeFault reports one row-fault latency to the added observers.
// Called by the durable engine on the fault path.
func (db *DB) observeFault(d time.Duration) {
	if obs := db.faultObs.Load(); obs != nil {
		for _, fn := range *obs {
			fn(d)
		}
	}
}

// dbStats are monotonic counters kept atomic so queries under the
// shared read lock can update them.
type dbStats struct {
	stmtHits, stmtMisses                atomic.Uint64
	planHits, planMisses                atomic.Uint64
	pointLookups, rangeScans, fullScans atomic.Uint64
	indexedJoins, loopJoins             atomic.Uint64
	sortsEliminated                     atomic.Uint64
	analyzedQueries                     atomic.Uint64
	queriesRecorded                     atomic.Uint64
}

// DBStats is a point-in-time snapshot of the database's internal
// counters, exported for the observability registry.
type DBStats struct {
	StmtCacheHits, StmtCacheMisses uint64
	PlanCacheHits, PlanCacheMisses uint64
	PointLookups                   uint64
	RangeScans                     uint64
	FullScans                      uint64
	IndexedJoins, LoopJoins        uint64
	SortsEliminated                uint64
	// AnalyzedQueries counts executions that collected per-operator
	// actuals (EXPLAIN ANALYZE, traced queries, recorder candidates);
	// QueriesRecorded counts entries pushed into the flight recorder.
	AnalyzedQueries uint64
	QueriesRecorded uint64
}

// Stats returns a snapshot of the query-engine counters.
func (db *DB) Stats() DBStats {
	return DBStats{
		StmtCacheHits:   db.stats.stmtHits.Load(),
		StmtCacheMisses: db.stats.stmtMisses.Load(),
		PlanCacheHits:   db.stats.planHits.Load(),
		PlanCacheMisses: db.stats.planMisses.Load(),
		PointLookups:    db.stats.pointLookups.Load(),
		RangeScans:      db.stats.rangeScans.Load(),
		FullScans:       db.stats.fullScans.Load(),
		IndexedJoins:    db.stats.indexedJoins.Load(),
		LoopJoins:       db.stats.loopJoins.Load(),
		SortsEliminated: db.stats.sortsEliminated.Load(),
		AnalyzedQueries: db.stats.analyzedQueries.Load(),
		QueriesRecorded: db.stats.queriesRecorded.Load(),
	}
}

// EngineName identifies the attached storage engine.
func (db *DB) EngineName() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine.Name()
}

// EngineStats reports the storage engine's durability counters (zeros
// for the in-memory engine).
func (db *DB) EngineStats() EngineStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.engine.Stats()
}

// Checkpoint forces the engine to compact its persistent state (a
// no-op for the in-memory engine). Writers wait while it runs.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.engine.Checkpoint()
}

// Close flushes and detaches the storage engine. The database remains
// queryable in memory, but further writes will fail on a durable
// engine's closed files.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.engine.Close()
}

// Open returns an empty database on the in-memory engine.
func Open() *DB {
	return &DB{
		tables:    make(map[string]*table),
		engine:    memEngine{},
		stmtCache: newLRU[string, Statement](stmtCacheCap),
		planCache: newLRU[string, *SelectPlan](planCacheCap),
	}
}

// Result reports the outcome of a write statement.
type Result struct {
	RowsAffected int
	LastInsertID int64
}

// Rows is a fully materialized query result. Its rows are cells; Maps
// and QueryRow box them.
type Rows struct {
	Columns []string
	Data    [][]cell.Cell

	exact bool
}

// Len returns the number of result rows.
func (r *Rows) Len() int { return len(r.Data) }

// Exact reports whether the rows hold every cell allocated for them: each
// row was cut from slabs that no cell outside the result shares, so a row
// kept past its result pins only the cells it shows. A COUNT's row lives
// in its execution, a slab reserved for more rows than came holds room,
// and rows OFFSET or LIMIT cut off keep their cells: none of those
// results is exact.
func (r *Rows) Exact() bool { return r.exact }

// Col returns the index of the named column (case-insensitive), or -1.
func (r *Rows) Col(name string) int {
	for i, c := range r.Columns {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Maps converts the result into one map per row keyed by column name.
func (r *Rows) Maps() []map[string]Value {
	out := make([]map[string]Value, len(r.Data))
	for i, row := range r.Data {
		m := make(map[string]Value, len(r.Columns))
		for j, c := range r.Columns {
			m[c] = row[j].Value()
		}
		out[i] = m
	}
	return out
}

// prepare parses sql, consulting the statement cache first.
func (db *DB) prepare(sql string) (Statement, error) {
	db.stmtMu.Lock()
	st, ok := db.stmtCache.get(sql)
	db.stmtMu.Unlock()
	if ok {
		db.stats.stmtHits.Add(1)
		return st, nil
	}
	db.stats.stmtMisses.Add(1)
	st, err := ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	db.stmtMu.Lock()
	db.stmtCache.put(sql, st)
	db.stmtMu.Unlock()
	return st, nil
}

// planFor returns the compiled plan for sql, building and caching it on
// first use. A cached plan is revalidated against the current DDL epoch
// and table size classes and rebuilt when stale, so CREATE INDEX or
// substantial data growth take effect on the next statement. The caller
// must hold at least a read lock on db.mu.
func (db *DB) planFor(sql string, st Statement) (*SelectPlan, error) {
	p, _, err := db.planForCached(sql, st)
	return p, err
}

// planForCached is planFor plus cache provenance: hit reports whether
// the returned plan came from the plan cache (true) or was compiled by
// this call (false) — the marker EXPLAIN surfaces.
func (db *DB) planForCached(sql string, st Statement) (p *SelectPlan, hit bool, err error) {
	db.planMu.Lock()
	if p, ok := db.planCache.get(sql); ok {
		if p.valid(db) {
			db.planMu.Unlock()
			db.stats.planHits.Add(1)
			return p, true, nil
		}
		db.planCache.remove(sql)
	}
	db.planMu.Unlock()
	db.stats.planMisses.Add(1)
	p, err = db.buildPlan(st)
	if err != nil {
		return nil, false, err
	}
	db.planMu.Lock()
	db.planCache.put(sql, p)
	db.planMu.Unlock()
	return p, false, nil
}

// InvalidatePlan drops the compiled plan cached for the given SQL text,
// if any. Descriptor hot-swaps (OverrideQuery) call it so a replaced
// query cannot be served from a stale compilation.
func (db *DB) InvalidatePlan(sql string) {
	db.planMu.Lock()
	db.planCache.remove(sql)
	db.planMu.Unlock()
}

// Exec runs a write or DDL statement. SELECT is rejected; use Query.
// The call returns once the change is durable under the attached
// engine (immediately, for the in-memory engine).
func (db *DB) Exec(sql string, args ...Value) (Result, error) {
	st, err := db.prepare(sql)
	if err != nil {
		return Result{}, err
	}
	cargs, err := coerceArgs(st, args)
	if err != nil {
		return Result{}, err
	}
	cs := &ChangeSet{}
	db.mu.Lock()
	res, execErr := db.execLocked(sql, st, cargs, nil, cs)
	// A failed statement may still have applied some operations (a
	// multi-row INSERT rejecting its second row keeps the first, with
	// no undo log in auto-commit mode); those must reach the engine so
	// memory and durable state stay identical.
	wait, applyErr := db.applyLocked(cs)
	db.mu.Unlock()
	var waitErr error
	if wait != nil {
		waitErr = wait()
	}
	if execErr != nil {
		return res, execErr
	}
	if applyErr != nil {
		return res, applyErr
	}
	return res, waitErr
}

// applyLocked commits a collected change-set: assigns its sequence
// number and hands it to the engine. It returns the engine's durability
// wait function, to be called after the exclusive lock is released (that
// ordering is what lets the engine batch fsyncs across concurrent
// committers). The in-memory mutation has already happened when the
// engine rejects a change-set; engines fail stickily, so the divergence
// surfaces on this and every later commit rather than silently. The
// caller must hold the exclusive lock. Empty change-sets are a no-op.
func (db *DB) applyLocked(cs *ChangeSet) (func() error, error) {
	if len(cs.Ops) == 0 {
		return nil, nil
	}
	db.seq++
	cs.Seq = db.seq
	return db.engine.Apply(cs)
}

// Query runs a SELECT through its compiled plan and returns the
// materialized result. The plan is compiled once per SQL text and
// reused across calls with different parameters.
func (db *DB) Query(sql string, args ...Value) (*Rows, error) {
	p, _, e, err := db.planSelect(sql, args)
	if err != nil {
		return nil, err
	}
	defer db.mu.RUnlock()
	return db.execPlan(p, e, nil)
}

// planSelect is the front half of every SELECT entry point (Query,
// QueryContext, ExplainAnalyze): it prepares sql, refuses anything but
// a SELECT, binds args into a new execution, read-locks db and returns
// the compiled plan, whether it came from the plan cache and the
// execution to run it as. On success the caller holds the read lock and
// must release it; on error the lock is not held.
func (db *DB) planSelect(sql string, args []Value) (p *SelectPlan, hit bool, e *execution, err error) {
	st, err := db.prepare(sql)
	if err != nil {
		return nil, false, nil, err
	}
	if _, ok := st.(*SelectStmt); !ok {
		return nil, false, nil, fmt.Errorf("rdb: Query requires a SELECT statement, got %T", st)
	}
	if e, err = newExecution(st, args); err != nil {
		return nil, false, nil, err
	}
	db.mu.RLock()
	if p, hit, err = db.planForCached(sql, st); err != nil {
		db.mu.RUnlock()
		return nil, false, nil, err
	}
	return p, hit, e, nil
}

// QueryRow runs a SELECT expected to return at most one row. It returns
// nil when the result is empty.
func (db *DB) QueryRow(sql string, args ...Value) (map[string]Value, error) {
	rows, err := db.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	if rows.Len() == 0 {
		return nil, nil
	}
	return rows.Maps()[0], nil
}

// TableNames returns the names of all tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.name)
	}
	sort.Strings(names)
	return names
}

// RowCount returns the number of live rows in the named table.
func (db *DB) RowCount(tableName string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(tableName)]
	if !ok {
		return 0, fmt.Errorf("rdb: no such table %q", tableName)
	}
	return t.alive, nil
}

// coerceArgs checks the argument count and unboxes the arguments: the one
// place a Value enters the engine.
func coerceArgs(st Statement, args []Value) ([]cell.Cell, error) {
	return appendArgs(nil, st, args)
}

// appendArgs is coerceArgs writing into dst's room when the arguments fit.
func appendArgs(dst []cell.Cell, st Statement, args []Value) ([]cell.Cell, error) {
	want := *st.params()
	if len(args) != want {
		return nil, fmt.Errorf("rdb: statement needs %d parameters, got %d", want, len(args))
	}
	if cap(dst) < len(args) {
		dst = make([]cell.Cell, 0, len(args))
	}
	for _, a := range args {
		v, err := argCell(a)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// execLocked dispatches a non-SELECT statement. The caller must hold
// the write lock. If undo is non-nil, inverse operations are appended
// to it. If cs is non-nil, applied operations are recorded for the
// storage engine: row ops per affected row, DDL as its SQL text (only
// when it actually changed the schema — IF [NOT] EXISTS no-ops log
// nothing).
func (db *DB) execLocked(sql string, st Statement, args []cell.Cell, undo *undoLog, cs *ChangeSet) (Result, error) {
	switch x := st.(type) {
	case *CreateTableStmt, *CreateIndexStmt:
		epochBefore := db.ddlEpoch
		var res Result
		var err error
		switch d := x.(type) {
		case *CreateTableStmt:
			res, err = db.execCreateTable(d)
		case *CreateIndexStmt:
			res, err = db.execCreateIndex(d)
		}
		if err == nil && cs != nil && db.ddlEpoch != epochBefore {
			cs.add(ChangeOp{Kind: OpDDL, SQL: sql})
		}
		return res, err
	case *InsertStmt:
		return db.execInsert(sql, x, args, undo, cs)
	case *UpdateStmt:
		return db.execUpdate(sql, x, args, undo, cs)
	case *DeleteStmt:
		return db.execDelete(sql, x, args, undo, cs)
	case *SelectStmt:
		return Result{}, fmt.Errorf("rdb: use Query for SELECT")
	}
	return Result{}, fmt.Errorf("rdb: unsupported statement %T", st)
}

func (db *DB) execCreateTable(st *CreateTableStmt) (Result, error) {
	key := strings.ToLower(st.Name)
	if _, exists := db.tables[key]; exists {
		if st.IfNotExists {
			return Result{}, nil
		}
		return Result{}, fmt.Errorf("rdb: table %q already exists", st.Name)
	}
	for _, fk := range st.ForeignKeys {
		if _, ok := db.tables[strings.ToLower(fk.RefTable)]; !ok && !strings.EqualFold(fk.RefTable, st.Name) {
			return Result{}, fmt.Errorf("rdb: foreign key references unknown table %q", fk.RefTable)
		}
	}
	t, err := newTable(st)
	if err != nil {
		return Result{}, err
	}
	db.tables[key] = t
	db.ddlEpoch++
	return Result{}, nil
}

func (db *DB) execCreateIndex(st *CreateIndexStmt) (Result, error) {
	t, ok := db.tables[strings.ToLower(st.Table)]
	if !ok {
		return Result{}, fmt.Errorf("rdb: no such table %q", st.Table)
	}
	// A one-column CREATE INDEX is a hash index; any other is one sorted
	// index over the column list. A one-column ORDERED index is unnamed:
	// catalogs and Describe list it by its column.
	var err error
	switch {
	case len(st.Columns) > 1:
		name := st.Name
		if name == "" {
			name = strings.ToLower(st.Table) + "_" + strings.Join(st.Columns, "_")
		}
		err = t.createCompositeIndex(name, st.Columns)
	case st.Ordered:
		err = t.createCompositeIndex("", st.Columns)
	default:
		err = t.createIndex(st.Columns[0])
	}
	if err != nil {
		return Result{}, err
	}
	db.ddlEpoch++
	return Result{}, nil
}

func (db *DB) execInsert(sql string, st *InsertStmt, args []cell.Cell, undo *undoLog, cs *ChangeSet) (Result, error) {
	p, err := db.planFor(sql, st)
	if err != nil {
		return Result{}, err
	}
	t := p.base
	c := &execCtx{args: args}
	res := Result{}
	for _, vals := range p.values {
		row := make(Row, len(t.cols))
		for i, val := range vals {
			if err := p.setCol(c, row, i, val, st.Columns[i]); err != nil {
				return res, err
			}
		}
		if err := db.checkForeignKeys(t, row, &c.faults); err != nil {
			return res, err
		}
		id, err := t.insert(row)
		if err != nil {
			return res, err
		}
		if undo != nil {
			undo.add(undoEntry{table: t, op: undoInsert, rowID: id})
		}
		if cs != nil {
			// row now carries any assigned auto-increment key.
			cs.add(ChangeOp{Kind: OpInsert, Table: lowerKey(st.Table), RowID: id, Row: row})
		}
		res.RowsAffected++
		if t.pk >= 0 && row[t.pk].Kind == cell.KInt {
			res.LastInsertID = row[t.pk].Int()
		}
	}
	return res, nil
}

func (db *DB) checkForeignKeys(t *table, row Row, f *faultCtx) error {
	for _, fk := range t.fks {
		i, _ := t.col(fk.Column)
		v := row[i]
		if v.IsNull() {
			continue
		}
		ref, ok := db.tables[strings.ToLower(fk.RefTable)]
		if !ok {
			return fmt.Errorf("rdb: foreign key references missing table %q", fk.RefTable)
		}
		ids, indexed := ref.lookup(fk.RefColumn, v)
		if indexed {
			if len(ids) == 0 {
				return fmt.Errorf("rdb: foreign key violation: %s.%s = %v not in %s.%s",
					t.name, fk.Column, v.Value(), fk.RefTable, fk.RefColumn)
			}
			continue
		}
		// Unindexed referenced column: scan.
		ri, ok := ref.col(fk.RefColumn)
		if !ok {
			return fmt.Errorf("rdb: foreign key references missing column %s.%s", fk.RefTable, fk.RefColumn)
		}
		found := false
		for id := range ref.rows {
			r, err := ref.readRow(id, allCols, f)
			if err != nil {
				return err
			}
			if r != nil && indexKey(r[ri]) == indexKey(v) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("rdb: foreign key violation: %s.%s = %v not in %s.%s",
				t.name, fk.Column, v.Value(), fk.RefTable, fk.RefColumn)
		}
	}
	return nil
}

func (db *DB) execUpdate(sql string, st *UpdateStmt, args []cell.Cell, undo *undoLog, cs *ChangeSet) (Result, error) {
	p, c, ids, err := db.writeTargets(sql, st, args)
	if err != nil {
		return Result{}, err
	}
	t := p.base
	res := Result{}
	for _, id := range ids {
		old, err := t.readRow(id, allCols, &c.faults)
		if err != nil {
			return res, err
		}
		newRow := make(Row, len(old))
		copy(newRow, old)
		c.rows[0] = old
		for i, val := range p.values[0] {
			if err := p.setCol(c, newRow, i, val, st.Sets[i].Column); err != nil {
				return res, err
			}
		}
		if err := db.checkForeignKeys(t, newRow, &c.faults); err != nil {
			return res, err
		}
		slot := t.rows[id]
		if err := t.updateRow(id, newRow, &c.faults); err != nil {
			return res, err
		}
		if undo != nil {
			undo.add(undoEntry{table: t, op: undoUpdate, rowID: id, oldRow: old, slot: slot})
		}
		if cs != nil {
			cs.add(ChangeOp{Kind: OpUpdate, Table: lowerKey(st.Table), RowID: id, Row: newRow, OldRow: old})
		}
		res.RowsAffected++
	}
	return res, nil
}

func (db *DB) execDelete(sql string, st *DeleteStmt, args []cell.Cell, undo *undoLog, cs *ChangeSet) (Result, error) {
	p, c, ids, err := db.writeTargets(sql, st, args)
	if err != nil {
		return Result{}, err
	}
	t := p.base
	res := Result{}
	for _, id := range ids {
		slot := t.rows[id]
		old := t.deleteRow(id, &c.faults)
		if old == nil {
			continue
		}
		if undo != nil {
			undo.add(undoEntry{table: t, op: undoDelete, rowID: id, oldRow: old, slot: slot})
		}
		if cs != nil {
			cs.add(ChangeOp{Kind: OpDelete, Table: lowerKey(st.Table), RowID: id, OldRow: old})
		}
		res.RowsAffected++
	}
	return res, nil
}

// writeTargets runs an UPDATE's or DELETE's plan and collects the slot
// ids of the rows it writes, in row-id order, all before the first write
// moves an index entry. The returned context is the plan's, for the SET
// values.
func (db *DB) writeTargets(sql string, st Statement, args []cell.Cell) (*SelectPlan, *execCtx, []int, error) {
	p, err := db.planFor(sql, st)
	if err != nil {
		return nil, nil, nil, err
	}
	c := &execCtx{rows: make([]Row, 1), need: p.need, args: args}
	var ids []int
	err = db.runBase(p, c, func(id int, r Row) error {
		c.rows[0] = r
		return p.filter(c, func() error {
			ids = append(ids, id)
			return nil
		})
	})
	return p, c, ids, err
}

// setCol evaluates the i-th value of a write and stores it, coerced to
// its column's type, in row.
func (p *SelectPlan) setCol(c *execCtx, row Row, i int, val compiledExpr, name string) error {
	v, err := val(c)
	if err != nil {
		return err
	}
	pos := p.setCols[i]
	cv, err := toColumn(v, p.base.cols[pos].def.Type)
	if err != nil {
		return fmt.Errorf("%w (column %s)", err, name)
	}
	row[pos] = cv
	return nil
}

func lowerKey(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
