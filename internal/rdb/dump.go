package rdb

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// This file implements whole-database snapshots: Dump serializes the
// schema, rows, auto-increment state and index definitions; Restore
// rebuilds an equivalent database. Snapshots give the embedded engine
// restart persistence (the paper's data tier is an external DBMS; an
// embedded engine needs its own durability story).

type dumpColumn struct {
	Name          string
	Type          ColType
	PrimaryKey    bool
	AutoIncrement bool
	NotNull       bool
	Unique        bool
}

type dumpComposite struct {
	Name string
	Cols []string
}

type dumpTable struct {
	Name    string
	Columns []dumpColumn
	FKs     []ForeignKeyDef
	Indexes []string // hash-indexed column names
	Ordered []string // ordered-indexed column names
	// Composite lists multi-column sorted indexes. The field is additive:
	// gob ignores it when absent, so snapshots from before it existed
	// still restore (and Version stays 1).
	Composite []dumpComposite
	AutoInc   int64
	Rows      []Row
}

type dumpFile struct {
	Version int
	Tables  []dumpTable
}

// dumpChunk is one bounded batch of rows in a version-2 stream. A
// chunk with an empty Table name terminates the stream.
type dumpChunk struct {
	Table string
	Rows  []Row
}

// dumpChunkRows bounds how many rows travel in one chunk — and, under
// a paging engine, how many faulted rows are materialized at once on
// either side of the stream.
const dumpChunkRows = 256

func init() {
	gob.Register(int64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
	gob.Register(time.Time{})
}

// Dump writes a consistent snapshot of the database to w. It holds the
// read lock for the duration, so concurrent writers wait. The stream
// is a version-2 header (schema, index definitions, auto-increment
// state, no rows) followed by bounded row chunks: evicted rows fault
// in through the storage engine one chunk at a time, so dumping a
// larger-than-RAM database never materializes a full table.
func (db *DB) Dump(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()

	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)

	f := dumpFile{Version: 2}
	for _, name := range names {
		t := db.tables[name]
		dt := dumpTable{Name: t.name, AutoInc: t.autoInc, FKs: t.fks}
		for _, c := range t.cols {
			dt.Columns = append(dt.Columns, dumpColumn{
				Name: c.def.Name, Type: c.def.Type,
				PrimaryKey: c.def.PrimaryKey, AutoIncrement: c.def.AutoIncrement,
				NotNull: c.def.NotNull, Unique: c.def.Unique,
			})
		}
		for col := range t.indexes {
			dt.Indexes = append(dt.Indexes, col)
		}
		sort.Strings(dt.Indexes)
		for col := range t.ordered {
			dt.Ordered = append(dt.Ordered, col)
		}
		sort.Strings(dt.Ordered)
		for _, ix := range t.composites {
			dt.Composite = append(dt.Composite, dumpComposite{
				Name: ix.name, Cols: append([]string(nil), ix.colNames...),
			})
		}
		f.Tables = append(f.Tables, dt)
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(&f); err != nil {
		return fmt.Errorf("rdb: dump: %w", err)
	}
	var fc faultCtx
	for _, name := range names {
		t := db.tables[name]
		chunk := dumpChunk{Table: t.name}
		for id := range t.rows {
			r, err := t.readRow(id, allCols, &fc)
			if err != nil {
				return err
			}
			if r == nil {
				continue
			}
			row := make(Row, len(r))
			copy(row, r)
			chunk.Rows = append(chunk.Rows, row)
			if len(chunk.Rows) == dumpChunkRows {
				if err := enc.Encode(&chunk); err != nil {
					return fmt.Errorf("rdb: dump: %w", err)
				}
				chunk.Rows = nil
			}
		}
		if len(chunk.Rows) > 0 {
			if err := enc.Encode(&chunk); err != nil {
				return fmt.Errorf("rdb: dump: %w", err)
			}
		}
	}
	if err := enc.Encode(&dumpChunk{}); err != nil {
		return fmt.Errorf("rdb: dump: %w", err)
	}
	return nil
}

// Restore reads a snapshot produced by Dump into a fresh in-memory
// database.
func Restore(r io.Reader) (*DB, error) {
	db := Open()
	if err := db.LoadDump(r); err != nil {
		return nil, err
	}
	return db, nil
}

// LoadDump replays a snapshot produced by Dump into db, which must be
// empty. Everything flows through the storage engine as committed
// change-sets: under a durable engine it lands in the WAL like any
// other commit and is crash-safe by the time LoadDump returns. A
// version-1 snapshot (rows inline) restores as a single change-set; a
// version-2 stream commits the schema first and then each bounded row
// chunk separately, so restoring a larger-than-RAM snapshot under a
// paging engine never holds the whole database in memory (the
// engine's eviction sweep runs between chunk commits). On error the
// database is in an undefined partial state and must be discarded.
func (db *DB) LoadDump(r io.Reader) error {
	dec := gob.NewDecoder(r)
	var f dumpFile
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("rdb: restore: %w", err)
	}
	if f.Version != 1 && f.Version != 2 {
		return fmt.Errorf("rdb: restore: unsupported snapshot version %d", f.Version)
	}
	ordered, err := topoTables(f.Tables)
	if err != nil {
		return err
	}
	cs := &ChangeSet{}
	db.mu.Lock()
	if len(db.tables) != 0 {
		db.mu.Unlock()
		return fmt.Errorf("rdb: restore: database is not empty")
	}
	if err := db.loadDumpLocked(ordered, cs); err != nil {
		db.mu.Unlock()
		return err
	}
	wait, err := db.applyLocked(cs)
	db.mu.Unlock()
	if err != nil {
		return err
	}
	if wait != nil {
		if err := wait(); err != nil {
			return err
		}
	}
	if f.Version == 1 {
		return nil
	}
	for {
		var ch dumpChunk
		if err := dec.Decode(&ch); err != nil {
			return fmt.Errorf("rdb: restore: %w", err)
		}
		if ch.Table == "" {
			return nil
		}
		if err := db.loadChunk(&ch); err != nil {
			return err
		}
	}
}

// loadChunk commits one row chunk of a version-2 stream. Rows bypass
// execInsert: the snapshot is internally consistent, so per-row
// foreign-key checks would only forbid row orderings Dump is free to
// produce.
func (db *DB) loadChunk(ch *dumpChunk) error {
	cs := &ChangeSet{}
	key := lowerKey(ch.Table)
	db.mu.Lock()
	t := db.tables[key]
	if t == nil {
		db.mu.Unlock()
		return fmt.Errorf("rdb: restore: chunk for unknown table %q", ch.Table)
	}
	for _, row := range ch.Rows {
		if len(row) != len(t.cols) {
			db.mu.Unlock()
			return fmt.Errorf("rdb: restore: row arity mismatch in %q", ch.Table)
		}
		id, err := t.insert(row)
		if err != nil {
			db.mu.Unlock()
			return fmt.Errorf("rdb: restore row into %q: %w", ch.Table, err)
		}
		cs.add(ChangeOp{Kind: OpInsert, Table: key, RowID: id, Row: row})
	}
	wait, err := db.applyLocked(cs)
	db.mu.Unlock()
	if err != nil {
		return err
	}
	if wait != nil {
		return wait()
	}
	return nil
}

func (db *DB) loadDumpLocked(tables []dumpTable, cs *ChangeSet) error {
	exec := func(sql string) error {
		st, err := ParseStatement(sql)
		if err != nil {
			return fmt.Errorf("rdb: restore DDL %q: %w", sql, err)
		}
		if _, err := db.execLocked(sql, st, nil, nil, cs); err != nil {
			return fmt.Errorf("rdb: restore DDL %q: %w", sql, err)
		}
		return nil
	}
	for _, dt := range tables {
		cols := make([]ColumnDef, len(dt.Columns))
		for i, c := range dt.Columns {
			cols[i] = ColumnDef{
				Name: c.Name, Type: c.Type,
				PrimaryKey: c.PrimaryKey, AutoIncrement: c.AutoIncrement,
				NotNull: c.NotNull, Unique: c.Unique,
			}
		}
		if err := exec(renderCreateTableSQL(dt.Name, cols, dt.FKs)); err != nil {
			return err
		}
		key := lowerKey(dt.Name)
		for _, col := range dt.Indexes {
			if err := exec(fmt.Sprintf("CREATE INDEX ix_%s_%s ON %s (%s)", key, col, dt.Name, col)); err != nil {
				return err
			}
		}
		for _, col := range dt.Ordered {
			if err := exec(fmt.Sprintf("CREATE ORDERED INDEX ord_%s_%s ON %s (%s)", key, col, dt.Name, col)); err != nil {
				return err
			}
		}
		for _, ci := range dt.Composite {
			if err := exec(fmt.Sprintf("CREATE INDEX %s ON %s (%s)", ci.Name, dt.Name, strings.Join(ci.Cols, ", "))); err != nil {
				return err
			}
		}
		// Rows bypass execInsert: the snapshot is internally consistent,
		// so per-row foreign-key checks would only forbid row orderings
		// Dump is free to produce.
		t := db.tables[key]
		for _, row := range dt.Rows {
			if len(row) != len(t.cols) {
				return fmt.Errorf("rdb: restore: row arity mismatch in %q", dt.Name)
			}
			id, err := t.insert(row)
			if err != nil {
				return fmt.Errorf("rdb: restore row into %q: %w", dt.Name, err)
			}
			cs.add(ChangeOp{Kind: OpInsert, Table: key, RowID: id, Row: row})
		}
		t.autoInc = dt.AutoInc
		cs.add(ChangeOp{Kind: OpAutoInc, Table: key, AutoInc: dt.AutoInc})
	}
	return nil
}

// topoTables orders dumped tables so every foreign-key target is
// created before its referrer (Dump stores them alphabetically, which
// CREATE TABLE's reference check may reject). Self-references are
// fine; cross-table cycles cannot have been created through DDL.
func topoTables(tables []dumpTable) ([]dumpTable, error) {
	byName := make(map[string]int, len(tables))
	for i, dt := range tables {
		byName[lowerKey(dt.Name)] = i
	}
	deps := make([][]int, len(tables)) // deps[i] -> tables waiting on i
	indeg := make([]int, len(tables))
	for i, dt := range tables {
		seen := make(map[int]bool)
		for _, fk := range dt.FKs {
			j, ok := byName[lowerKey(fk.RefTable)]
			if !ok || j == i || seen[j] {
				continue
			}
			seen[j] = true
			deps[j] = append(deps[j], i)
			indeg[i]++
		}
	}
	queue := make([]int, 0, len(tables))
	for i := range tables {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	out := make([]dumpTable, 0, len(tables))
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		out = append(out, tables[i])
		for _, j := range deps[i] {
			if indeg[j]--; indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(out) != len(tables) {
		return nil, fmt.Errorf("rdb: restore: foreign-key cycle across tables")
	}
	return out, nil
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
