package rdb

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"webmlgo/internal/cell"
	"webmlgo/internal/rdb/storage/pager"
	"webmlgo/internal/rdb/storage/wal"
)

// The durable engine pairs a write-ahead log with a page-backed B-tree
// (internal/rdb/storage). The executor still runs entirely against the
// in-memory tables — the engine shadows every committed change-set:
//
//	commit:  mutate tables  ->  Apply: append WAL frame + write through
//	         (under db.mu)       to the B-tree's buffer pool
//	         unlock          ->  wait(): group-commit fsync of the WAL
//
// Three mechanisms let the working set exceed RAM:
//
//   - Anti-caching: when a resident-row budget is set, Apply sweeps cold
//     rows out of their table slots, leaving one-word eviction markers.
//     Index structures stay fully resident; only tuple payloads page
//     out, faulting back through a small row cache and the buffer pool.
//   - Persisted index images: every secondary index also writes a
//     projected key image into the tree under its own id, so recovery
//     rebuilds index structures from the (small) images and registers
//     data records as markers — it never decodes full rows.
//   - Incremental checkpoints: dirty pages are flushed in place and the
//     meta page flips between two slots, so checkpoint cost follows the
//     write rate, not the database size.
//
// Rows are keyed by (tableID, recID): tables with an INTEGER primary
// key derive recID from the key itself (order-preserving sign flip),
// other tables draw from a per-table counter persisted in the catalog.

// Filenames inside a durable database directory.
const (
	pagesFileName = "pages.db"
	walFileName   = "wal.log"
)

// defaultCheckpointBytes is the WAL size that triggers an automatic
// checkpoint during Apply.
const defaultCheckpointBytes = 8 << 20

// defaultRowCacheRows bounds the decoded-row cache when no resident-row
// budget is configured.
const defaultRowCacheRows = 4096

// DurableOptions tune OpenDurable. Zero values select defaults.
type DurableOptions struct {
	// CheckpointBytes is the WAL length that triggers an automatic
	// checkpoint (default 8 MiB).
	CheckpointBytes int64
	// PoolPages is the buffer-pool capacity in 4 KiB pages (default
	// 2048, i.e. 8 MiB).
	PoolPages int
	// ResidentRows, when positive, bounds the number of materialized
	// rows across all tables: each commit sweeps cold rows down to
	// eviction markers that fault back through the buffer pool on
	// access. Zero keeps every row resident (markers still appear
	// after recovery, which always starts paged-out).
	ResidentRows int
}

// catIndex is one persisted index image in the catalog: the tree id its
// projected keys live under and enough shape to rebuild the in-memory
// structure without touching data rows.
type catIndex struct {
	IdxID uint32
	Kind  string // "pk" | "unique" | "hash" | "ordered" | "composite"
	Name  string // composite index name; empty otherwise
	Cols  []string
}

// catTable is one table's entry in the persisted catalog. Schema is
// carried as replayable SQL so the catalog can never diverge from what
// the parser accepts.
type catTable struct {
	Name      string // lower-cased map key
	CreateSQL string
	TableID   uint32
	IntPK     bool
	NextRec   uint64
	AutoInc   int64
	Indexes   []catIndex
}

// catalogFile is the blob stored in the page file at each checkpoint.
// Tables appear in creation order so foreign-key references replay
// cleanly. Version 2 is the only version: each table carries its
// persisted index images.
type catalogFile struct {
	Version     int
	NextTableID uint32
	Tables      []catTable
}

func encodeCatalog(cf *catalogFile) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cf); err != nil {
		return nil, fmt.Errorf("rdb: encode catalog: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeCatalog(b []byte) (*catalogFile, error) {
	var cf catalogFile
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&cf); err != nil {
		return nil, fmt.Errorf("rdb: decode catalog: %w", err)
	}
	if cf.Version != 2 {
		return nil, fmt.Errorf("rdb: unsupported catalog version %d", cf.Version)
	}
	return &cf, nil
}

// engIndex is the engine's registration of one persisted index image.
type engIndex struct {
	id       uint32
	kind     string // "pk" | "unique" | "hash" | "ordered" | "composite"
	name     string // composite name; empty otherwise
	cols     []int  // column positions, parallel to colNames
	colNames []string
}

// engTable is the engine's per-table bookkeeping.
type engTable struct {
	id    uint32
	name  string // the table's, for errors
	width int    // its column count
	intPK bool
	pkCol int // column index of the INTEGER primary key, -1 otherwise
	// nextRec and recOf serve tables without an INTEGER primary key:
	// records get synthetic ids from the counter, and recOf remembers
	// the id behind each in-memory row slot for updates and deletes.
	nextRec uint64
	recOf   map[int]uint64
	// images are the persisted index projections written alongside
	// every data record.
	images []*engIndex
}

// recOfRow is the record id behind the resident row r in slot id: its
// key's, or the one recOf remembers. ok is false when it has none.
func (et *engTable) recOfRow(id int, r Row) (rec uint64, ok bool) {
	if et.intPK {
		pk := r[et.pkCol]
		return pkRecID(pk.Int()), pk.Kind == cell.KInt
	}
	rec, ok = et.recOf[id]
	return rec, ok
}

// pkRecID maps an int64 primary key onto the record-id space with its
// sign bit flipped, so unsigned key order equals signed value order.
func pkRecID(pk int64) uint64 { return uint64(pk) ^ (1 << 63) }

// recIDPK inverts pkRecID.
func recIDPK(rec uint64) int64 { return int64(rec ^ (1 << 63)) }

// cacheKey addresses one record in the row cache.
type cacheKey struct {
	tid uint32
	rec uint64
}

// rowEntry is one row-cache entry: the record's image as the fault copied
// it out of its leaf, and a row holding the columns decoded from it so far
// (have; the others are NULL). Both live in the faulting execution's chunks
// (faultCtx). A published entry is never written: a read that needs more
// columns caches a widened copy, so a reader may keep the row it was
// handed (a group's first row, a join frame).
type rowEntry struct {
	img  string
	row  Row
	have colMask
}

// Chunk bounds of a faultCtx. A cached entry pins the chunks its image
// and row sit in, so neither may grow with the scan that faulted it.
const (
	faultImgChunk = 4 << 10 // bytes of an image chunk
	faultSlabRows = 32      // rows a row chunk holds at most
)

// faultCtx is what the row faults of one execution share, so a faulted
// row costs no allocation of its own: an image arena each fault appends
// its leaf cell to, keeping a substring (strings a builder returned stay
// valid as it grows on) that its text and time cells alias, and a slab its
// table-wide row is cut from. The zero value is ready; a plan's lives in
// its execCtx, and a caller outside a plan declares its own.
type faultCtx struct {
	img  strings.Builder
	rows slab[cell.Cell]
}

// image appends the cell stored under k to the arena and returns it. The
// first chunk grows from the first image, so a point read allocates just
// its image. Once a chunk has less room than an inline cell may need, the
// next starts as one whole allocation, so a scan's chunk is never a
// regrown copy.
func (f *faultCtx) image(tree *pager.BTree, k pager.Key) (string, bool, error) {
	if f.img.Len() > faultImgChunk-pager.MaxInline {
		f.img.Reset()
		f.img.Grow(faultImgChunk)
	}
	start := f.img.Len()
	found, err := tree.AppendString(k, &f.img)
	return f.img.String()[start:], found, err
}

func (f *faultCtx) row(width int) Row { return f.rows.cutUpTo(width, faultSlabRows) }

// rowCache is a small LRU of record images and their decoded columns in
// front of the page tree: a hot evicted row costs a map hit instead of a
// tree descent plus decode. Fetches run under at least db.mu.RLock,
// which excludes Apply's invalidation, so a stale pre-invalidate read can
// never be re-inserted after Apply cleared it.
type rowCache struct {
	mu  sync.Mutex
	lru *lruCache[cacheKey, rowEntry]
}

func newRowCache(capacity int) *rowCache {
	if capacity <= 0 {
		capacity = defaultRowCacheRows
	}
	return &rowCache{lru: newLRU[cacheKey, rowEntry](capacity)}
}

func (c *rowCache) get(tid uint32, rec uint64) (rowEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.get(cacheKey{tid, rec})
}

func (c *rowCache) put(tid uint32, rec uint64, ent rowEntry) {
	c.mu.Lock()
	c.lru.put(cacheKey{tid, rec}, ent)
	c.mu.Unlock()
}

func (c *rowCache) invalidate(tid uint32, rec uint64) {
	c.mu.Lock()
	c.lru.remove(cacheKey{tid, rec})
	c.mu.Unlock()
}

// durableEngine implements Engine over a WAL and a page store. All
// methods except the wait functions returned by Apply and fetchCols run
// with db.mu held exclusively (Stats with at least the read lock).
// fetchCols runs under the shared lock, concurrently with other faults.
type durableEngine struct {
	db    *DB
	dir   string
	pages string
	log   *wal.Log
	store *pager.Store

	// treeMu guards the page tree: Apply, checkpoints and DDL hold it
	// exclusively, row faults hold it shared. The tree's mutating methods
	// must not overlap any other method, whatever lock the caller holds.
	treeMu sync.RWMutex
	cache  *rowCache

	tables      map[string]*engTable
	order       []string // creation order, for catalog replay
	nextTableID uint32

	residentRows int
	poolPages    int
	sweepCur     map[string]int // round-robin eviction cursor per table
	rowFaults    atomic.Uint64
	rowsEvicted  atomic.Uint64

	ckptBytes   int64
	checkpoints uint64
	recovered   uint64
	torn        int64

	err error // sticky: once durability is in doubt, every commit fails
}

func (e *durableEngine) Name() string { return "durable" }

func (e *durableEngine) fail(err error) error {
	if e.err == nil {
		e.err = err
	}
	return err
}

// fetchCols materializes one record with at least the columns need
// names decoded, from the row cache or the tree. A record that does not
// exist is a nil row; a tree read that fails or an image that does not
// decode is an error.
func (e *durableEngine) fetchCols(et *engTable, rec uint64, need colMask, f *faultCtx) (Row, error) {
	ent, cached := e.cache.get(et.id, rec)
	if !cached {
		start := time.Now()
		e.treeMu.RLock()
		img, found, err := f.image(e.store.Tree(), pager.MakeKey(et.id, rec))
		e.treeMu.RUnlock()
		e.rowFaults.Add(1)
		e.db.observeFault(time.Since(start))
		if err != nil {
			return nil, errCorrupt(et.name, rec, et.intPK, err)
		}
		if !found {
			return nil, nil
		}
		ent = rowEntry{img: img, row: f.row(et.width)}
	}
	if need&^ent.have == 0 {
		return ent.row, nil
	}
	if cached {
		r := f.row(et.width)
		copy(r, ent.row)
		ent.row = r
	}
	if err := decodeCols(ent.img, ent.row, need&^ent.have); err != nil {
		return nil, errCorrupt(et.name, rec, et.intPK, err)
	}
	ent.have |= need
	e.cache.put(et.id, rec, ent)
	return ent.row, nil
}

// writeImages writes the projected key image of row under every index
// image id. Images are keyed by record id, so updates overwrite in
// place and deletes need no old values.
func (e *durableEngine) writeImages(tree *pager.BTree, et *engTable, rec uint64, row Row) error {
	for _, img := range et.images {
		vals := make(Row, len(img.cols))
		for i, c := range img.cols {
			vals[i] = row[c]
		}
		if err := tree.Put(pager.MakeKey(img.id, rec), encodeRow(vals)); err != nil {
			return err
		}
	}
	return nil
}

// putRecord writes one record and its index images through the tree
// and invalidates the row cache.
func (e *durableEngine) putRecord(tree *pager.BTree, et *engTable, rec uint64, data []byte, row Row) error {
	if err := tree.Put(pager.MakeKey(et.id, rec), data); err != nil {
		return err
	}
	if err := e.writeImages(tree, et, rec, row); err != nil {
		return err
	}
	e.cache.invalidate(et.id, rec)
	return nil
}

// delRecord removes one record and its index images.
func (e *durableEngine) delRecord(tree *pager.BTree, et *engTable, rec uint64) error {
	if _, err := tree.Delete(pager.MakeKey(et.id, rec)); err != nil {
		return err
	}
	for _, img := range et.images {
		if _, err := tree.Delete(pager.MakeKey(img.id, rec)); err != nil {
			return err
		}
	}
	e.cache.invalidate(et.id, rec)
	return nil
}

// Apply lowers the change-set to record-id operations, appends one WAL
// frame, writes the rows through to the B-tree, and returns a wait
// function that group-commits the frame to disk. A resident-row budget
// triggers an eviction sweep after the write-through.
func (e *durableEngine) Apply(cs *ChangeSet) (func() error, error) {
	if e.err != nil {
		return nil, e.err
	}
	rec := walRecord{seq: cs.Seq, ops: make([]walOp, 0, len(cs.Ops))}
	e.treeMu.Lock()
	err := e.lowerOps(cs, &rec)
	e.treeMu.Unlock()
	if err != nil {
		return nil, e.fail(err)
	}
	appendStart := time.Now()
	lsn, err := e.log.Append(encodeWALRecord(&rec))
	cs.WALAppend = time.Since(appendStart)
	if err != nil {
		return nil, e.fail(err)
	}
	e.sweep()
	// Two checkpoint triggers: WAL growth (bounds replay time) and
	// dirty-page pressure (dirty frames are unevictable no-steal, so
	// left unchecked they would crowd the pool past its budget).
	size, serr := e.log.FileSize()
	dirty := e.store.PoolStats().Dirty
	if (serr == nil && size > e.ckptBytes) || dirty > e.poolPages/2 {
		// The checkpoint absorbs this change-set (and flushes the WAL),
		// so the wait below returns immediately.
		ckptStart := time.Now()
		err := e.Checkpoint()
		cs.Checkpoint = time.Since(ckptStart)
		if err != nil {
			return nil, err
		}
	}
	log := e.log
	return func() error { return log.Sync(lsn) }, nil
}

// lowerOps translates ChangeOps to tree writes and WAL ops. The caller
// holds treeMu exclusively.
func (e *durableEngine) lowerOps(cs *ChangeSet, rec *walRecord) error {
	tree := e.store.Tree()
	for _, op := range cs.Ops {
		switch op.Kind {
		case OpDDL:
			if err := e.applyDDL(op.SQL); err != nil {
				return err
			}
			rec.ops = append(rec.ops, walOp{kind: wopDDL, sql: op.SQL})
		case OpInsert, OpUpdate:
			et := e.tables[op.Table]
			if et == nil {
				return fmt.Errorf("rdb: durable: unknown table %q", op.Table)
			}
			var recID uint64
			if et.intPK {
				pk := op.Row[et.pkCol]
				if pk.Kind != cell.KInt {
					return fmt.Errorf("rdb: durable: non-integer key in %q", op.Table)
				}
				recID = pkRecID(pk.Int())
				if op.Kind == OpUpdate {
					if oldPK := op.OldRow[et.pkCol]; oldPK.Kind == cell.KInt && oldPK != pk {
						// A key change moves the record: delete the old id.
						oldRec := pkRecID(oldPK.Int())
						if err := e.delRecord(tree, et, oldRec); err != nil {
							return err
						}
						rec.ops = append(rec.ops, walOp{kind: wopDel, table: op.Table, recID: oldRec})
					}
				}
			} else if op.Kind == OpInsert {
				recID = et.nextRec
				et.nextRec++
				et.recOf[op.RowID] = recID
			} else {
				var ok bool
				recID, ok = et.recOf[op.RowID]
				if !ok {
					return fmt.Errorf("rdb: durable: no record id for row %d of %q", op.RowID, op.Table)
				}
			}
			data := encodeRow(op.Row)
			if err := e.putRecord(tree, et, recID, data, op.Row); err != nil {
				return err
			}
			rec.ops = append(rec.ops, walOp{kind: wopPut, table: op.Table, recID: recID, rowData: data})
		case OpDelete:
			et := e.tables[op.Table]
			if et == nil {
				return fmt.Errorf("rdb: durable: unknown table %q", op.Table)
			}
			var recID uint64
			if et.intPK {
				pk := op.OldRow[et.pkCol]
				if pk.Kind != cell.KInt {
					return fmt.Errorf("rdb: durable: non-integer key in %q", op.Table)
				}
				recID = pkRecID(pk.Int())
			} else {
				var ok bool
				recID, ok = et.recOf[op.RowID]
				if !ok {
					return fmt.Errorf("rdb: durable: no record id for row %d of %q", op.RowID, op.Table)
				}
				delete(et.recOf, op.RowID)
			}
			if err := e.delRecord(tree, et, recID); err != nil {
				return err
			}
			rec.ops = append(rec.ops, walOp{kind: wopDel, table: op.Table, recID: recID})
		}
	}
	return nil
}

// sweep enforces the resident-row budget: when materialized rows exceed
// it, cold slots collapse to eviction markers. Cursors advance
// round-robin per table so eviction pressure rotates instead of
// thrashing one region. Runs after the change-set's write-through, so
// every evicted row is faultable from the tree.
func (e *durableEngine) sweep() {
	if e.residentRows <= 0 {
		return
	}
	total := 0
	for _, key := range e.order {
		if t := e.db.tables[key]; t != nil {
			total += t.resident
		}
	}
	if total <= e.residentRows {
		return
	}
	for _, key := range e.order {
		if total <= e.residentRows {
			break
		}
		t := e.db.tables[key]
		et := e.tables[key]
		if t == nil || et == nil || t.resident == 0 {
			continue
		}
		cur := e.sweepCur[key]
		n := len(t.rows)
		for scanned := 0; scanned < n && total > e.residentRows && t.resident > 0; scanned++ {
			if cur >= n {
				cur = 0
			}
			id := cur
			cur++
			r := t.rows[id]
			if r == nil {
				continue
			}
			if _, evicted := evictedRec(r); evicted {
				continue
			}
			rec, ok := et.recOfRow(id, r)
			if !ok {
				continue
			}
			t.evictSlot(id, rec)
			e.rowsEvicted.Add(1)
			total--
		}
		e.sweepCur[key] = cur
	}
}

// allocImage registers one index image for et, drawing its tree id from
// the shared table-id space.
func (e *durableEngine) allocImage(et *engTable, t *table, kind, name string, colNames []string) *engIndex {
	img := &engIndex{id: e.nextTableID, kind: kind, name: name, colNames: colNames}
	e.nextTableID++
	for _, cn := range colNames {
		img.cols = append(img.cols, t.colIdx[cn])
	}
	et.images = append(et.images, img)
	return img
}

// backfillImage writes img's projection of every existing record. The
// scan collects first and writes after: inserting into the tree while
// iterating it is not safe.
func (e *durableEngine) backfillImage(et *engTable, img *engIndex) error {
	tree := e.store.Tree()
	lo, hi := pager.TableBounds(et.id)
	type ent struct {
		rec  uint64
		data []byte
	}
	var ents []ent
	err := tree.Scan(lo, hi, func(k pager.Key, v []byte) error {
		row, err := decodeRow(string(v))
		if err != nil {
			return err
		}
		vals := make(Row, len(img.cols))
		for i, c := range img.cols {
			vals[i] = row[c]
		}
		ents = append(ents, ent{rec: k.RecID(), data: encodeRow(vals)})
		return nil
	})
	if err != nil {
		return err
	}
	for _, en := range ents {
		if err := tree.Put(pager.MakeKey(img.id, en.rec), en.data); err != nil {
			return err
		}
	}
	return nil
}

// applyDDL maintains the engine's table and image registries alongside
// a schema change that has already been applied to the in-memory
// tables. CREATE INDEX allocates and backfills a persisted image.
func (e *durableEngine) applyDDL(sql string) error {
	st, err := ParseStatement(sql)
	if err != nil {
		return fmt.Errorf("rdb: durable: replay DDL: %w", err)
	}
	switch x := st.(type) {
	case *CreateTableStmt:
		key := lowerKey(x.Name)
		if _, dup := e.tables[key]; dup {
			return nil
		}
		et := &engTable{id: e.nextTableID, pkCol: -1, nextRec: 1}
		e.nextTableID++
		t := e.db.tables[key]
		if t != nil && t.pk >= 0 && t.cols[t.pk].def.Type == TInt {
			et.intPK = true
			et.pkCol = t.pk
		} else {
			et.recOf = make(map[int]uint64)
		}
		e.tables[key] = et
		e.order = append(e.order, key)
		if t != nil {
			// Wire the paging hook: evicted slots fault back through the
			// engine.
			et.name, et.width = t.name, len(t.cols)
			t.fetch = func(rec uint64, need colMask, f *faultCtx) (Row, error) {
				return e.fetchCols(et, rec, need, f)
			}
			t.pkByRec = et.intPK
			// Persist what marker-only recovery cannot rederive from
			// record ids: primary keys of synthetic-id tables and UNIQUE
			// column values.
			if t.pk >= 0 && !et.intPK {
				e.allocImage(et, t, "pk", "", []string{strings.ToLower(t.cols[t.pk].def.Name)})
			}
			uniq := make([]string, 0, len(t.uniques))
			for col := range t.uniques {
				uniq = append(uniq, col)
			}
			sort.Strings(uniq)
			for _, col := range uniq {
				e.allocImage(et, t, "unique", "", []string{col})
			}
		}
	case *CreateIndexStmt:
		key := lowerKey(x.Table)
		et := e.tables[key]
		t := e.db.tables[key]
		if et == nil || t == nil {
			return nil
		}
		colNames := make([]string, len(x.Columns))
		for i, cn := range x.Columns {
			colNames[i] = strings.ToLower(cn)
		}
		kind, name := "hash", ""
		if len(colNames) > 1 {
			kind, name = "composite", x.Name
		} else if x.Ordered {
			kind = "ordered"
		}
		for _, img := range et.images {
			if img.kind == kind && sameColumnList(img.colNames, colNames) {
				return nil // recreate is a no-op, like the in-memory side
			}
		}
		img := e.allocImage(et, t, kind, name, colNames)
		return e.backfillImage(et, img)
	}
	return nil
}

// renderCatalog serializes the schema and per-table engine state for
// the next checkpoint. It reads db.tables, which is safe: Checkpoint
// runs with the exclusive lock held.
func (e *durableEngine) renderCatalog() ([]byte, error) {
	cf := catalogFile{Version: 2, NextTableID: e.nextTableID}
	for _, key := range e.order {
		et := e.tables[key]
		t := e.db.tables[key]
		if et == nil || t == nil {
			return nil, fmt.Errorf("rdb: durable: catalog missing table %q", key)
		}
		ct := catTable{
			Name:      key,
			CreateSQL: renderCreateTable(t),
			TableID:   et.id,
			IntPK:     et.intPK,
			NextRec:   et.nextRec,
			AutoInc:   t.autoInc,
		}
		for _, img := range et.images {
			ct.Indexes = append(ct.Indexes, catIndex{
				IdxID: img.id, Kind: img.kind, Name: img.name,
				Cols: append([]string(nil), img.colNames...),
			})
		}
		cf.Tables = append(cf.Tables, ct)
	}
	return encodeCatalog(&cf)
}

// Checkpoint flushes dirty pages in place and flips the page file's
// meta slot, then truncates the WAL — cost proportional to the pages
// written since the last checkpoint, not to database size. Pending
// Sync waiters are satisfied by the flush Reset performs first.
func (e *durableEngine) Checkpoint() error {
	if e.err != nil {
		return e.err
	}
	catalog, err := e.renderCatalog()
	if err != nil {
		return e.fail(err)
	}
	e.treeMu.Lock()
	err = e.store.IncrementalCheckpoint(e.db.seq, catalog)
	e.treeMu.Unlock()
	if err != nil {
		return e.fail(fmt.Errorf("rdb: checkpoint: %w", err))
	}
	if err := e.log.Reset(); err != nil {
		return e.fail(err)
	}
	e.checkpoints++
	return nil
}

func (e *durableEngine) Stats() EngineStats {
	ws := e.log.Stats()
	ps := e.store.PoolStats()
	resident := 0
	for _, t := range e.db.tables {
		resident += t.resident
	}
	return EngineStats{
		WALAppends:       ws.Appends,
		WALFsyncs:        ws.Fsyncs,
		WALBatches:       ws.Batches,
		WALBatchedRecs:   ws.BatchedRecords,
		WALBytes:         ws.Bytes,
		WALSize:          ws.Size,
		PoolHits:         ps.Hits,
		PoolMisses:       ps.Misses,
		PoolEvictions:    ps.Evictions,
		PoolResident:     ps.Resident,
		PoolDirty:        ps.Dirty,
		PoolPinned:       ps.Pinned,
		RowFaults:        e.rowFaults.Load(),
		RowsEvicted:      e.rowsEvicted.Load(),
		RowsResident:     resident,
		Checkpoints:      e.checkpoints,
		RecoveredRecords: e.recovered,
		TornBytes:        e.torn,
	}
}

// Close checkpoints (making the WAL empty for the next open) and
// releases both files. The sticky-error path skips the checkpoint: a
// doubtful engine must not overwrite a good page file.
func (e *durableEngine) Close() error {
	if e.err == nil {
		if err := e.Checkpoint(); err != nil {
			return err
		}
	}
	cerr := e.log.Close()
	if err := e.store.Close(); err != nil && cerr == nil {
		cerr = err
	}
	e.fail(errors.New("rdb: durable engine closed"))
	return cerr
}

// OpenDurable opens (or creates) a durable database rooted at dir and
// recovers it to the last committed state: catalog DDL replays first,
// then every record registers as an evicted marker (no row decode),
// index structures rebuild from their persisted images, and finally
// every WAL frame newer than the checkpoint replays.
func OpenDurable(dir string) (*DB, error) {
	return OpenDurableOpts(dir, DurableOptions{})
}

// OpenDurableOpts is OpenDurable with explicit tuning.
func OpenDurableOpts(dir string, opts DurableOptions) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rdb: open durable: %w", err)
	}
	pagesPath := filepath.Join(dir, pagesFileName)
	if _, err := os.Stat(pagesPath); errors.Is(err, os.ErrNotExist) {
		empty, err := encodeCatalog(&catalogFile{Version: 2})
		if err != nil {
			return nil, err
		}
		err = pager.WriteCheckpoint(pagesPath, 0, empty, func(func(pager.Key, []byte) error) error {
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("rdb: init durable: %w", err)
		}
	} else if err != nil {
		return nil, fmt.Errorf("rdb: open durable: %w", err)
	}
	store, err := pager.Open(pagesPath, opts.PoolPages)
	if err != nil {
		return nil, err
	}
	log, frames, torn, err := wal.Open(filepath.Join(dir, walFileName))
	if err != nil {
		store.Close()
		return nil, err
	}
	db := Open()
	e := &durableEngine{
		db:           db,
		dir:          dir,
		pages:        pagesPath,
		log:          log,
		store:        store,
		cache:        newRowCache(opts.ResidentRows),
		tables:       make(map[string]*engTable),
		residentRows: opts.ResidentRows,
		poolPages:    opts.PoolPages,
		sweepCur:     make(map[string]int),
		ckptBytes:    opts.CheckpointBytes,
		torn:         torn,
	}
	if e.ckptBytes <= 0 {
		e.ckptBytes = defaultCheckpointBytes
	}
	if e.poolPages <= 0 {
		e.poolPages = 2048 // pager's own default capacity
	}
	if err := e.recover(frames); err != nil {
		log.Close()
		store.Close()
		return nil, err
	}
	db.engine = e
	return db, nil
}

// recover rebuilds the in-memory database from the page file and the
// WAL tail. It runs before the engine is attached, so the memory-side
// replay cannot recurse into Apply. The catalog recovers without
// decoding a single data row: records become eviction markers and
// index structures load from their persisted images.
func (e *durableEngine) recover(frames []wal.Record) error {
	blob, err := e.store.Catalog()
	if err != nil {
		return err
	}
	cf, err := decodeCatalog(blob)
	if err != nil {
		return err
	}
	e.nextTableID = cf.NextTableID
	db := e.db
	ckptSeq := e.store.Meta().CheckpointSeq
	// recovery-only reverse maps: recID -> in-memory row slot, for
	// tables without an INTEGER primary key.
	rev := make(map[string]map[uint64]int)

	for _, ct := range cf.Tables {
		if err := e.recoverTable(ct, rev); err != nil {
			return err
		}
	}
	// applyDDL above advanced nextTableID past every registration; the
	// persisted value wins only if it is larger (an id must never be
	// reused while its keys might linger in the WAL).
	if cf.NextTableID > e.nextTableID {
		e.nextTableID = cf.NextTableID
	}
	db.seq = ckptSeq

	for _, fr := range frames {
		rec, err := decodeWALRecord(fr.Payload)
		if err != nil {
			return err
		}
		if rec.seq <= ckptSeq {
			continue
		}
		if err := e.replayRecord(rec, rev); err != nil {
			return err
		}
		db.seq = rec.seq
		e.recovered++
	}
	// WAL replay wrote its rows through to the tree and materialized
	// them in table slots; evict them so every open ends marker-only,
	// regardless of how the previous process stopped. Queries fault the
	// hot set back on demand.
	for name, t := range db.tables {
		et := e.tables[name]
		if et == nil || t.resident == 0 {
			continue
		}
		for id, r := range t.rows {
			if r == nil {
				continue
			}
			if _, evicted := evictedRec(r); evicted {
				continue
			}
			if rec, ok := et.recOfRow(id, r); ok {
				t.evictSlot(id, rec)
			}
		}
	}
	return nil
}

// recoverTable restores one table from its catalog entry: schema DDL
// replays, every record registers as an eviction marker (key scan
// only), and index structures rebuild from their persisted images — no
// data row is decoded.
func (e *durableEngine) recoverTable(ct catTable, rev map[string]map[uint64]int) error {
	if err := e.replaySQL(ct.CreateSQL); err != nil {
		return err
	}
	et := e.tables[ct.Name]
	t := e.db.tables[ct.Name]
	if et == nil || t == nil {
		return fmt.Errorf("rdb: recover: catalog table %q did not replay", ct.Name)
	}
	et.id = ct.TableID
	et.nextRec = ct.NextRec
	if et.intPK != ct.IntPK {
		return fmt.Errorf("rdb: recover: key mode mismatch for %q", ct.Name)
	}
	// The CREATE TABLE replay allocated fresh image ids; the persisted
	// registrations win.
	et.images = nil
	for _, ci := range ct.Indexes {
		img := &engIndex{id: ci.IdxID, kind: ci.Kind, name: ci.Name, colNames: ci.Cols}
		for _, cn := range ci.Cols {
			c, ok := t.colIdx[cn]
			if !ok {
				return fmt.Errorf("rdb: recover: %s image on unknown column %q in %q", ci.Kind, cn, ct.Name)
			}
			img.cols = append(img.cols, c)
		}
		et.images = append(et.images, img)
	}
	var rv map[uint64]int
	if !et.intPK {
		rv = make(map[uint64]int)
		rev[ct.Name] = rv
	}
	lo, hi := pager.TableBounds(et.id)
	err := e.store.Tree().ScanKeys(lo, hi, func(k pager.Key) error {
		rec := k.RecID()
		id := len(t.rows)
		t.rows = append(t.rows, evictedRowMark(rec))
		t.alive++
		if et.intPK {
			// Record ids are sign-flipped keys, so the scan yields pk order
			// and the sorted entries are appends.
			pk := cell.Int(recIDPK(rec))
			t.pkMap[pk] = id
			t.pkOrd.entries = append(t.pkOrd.entries, compEntry{key: []cell.Cell{pk}, id: id})
		} else {
			et.recOf[id] = rec
			rv[rec] = id
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, img := range et.images {
		if err := e.recoverImage(t, et, img, rv); err != nil {
			return err
		}
	}
	t.autoInc = ct.AutoInc
	return nil
}

// recoverImage rebuilds one in-memory index structure from its
// persisted projection. Sorted structures collect then sort (the image
// scan yields record order, not key order), mirroring how the live
// side builds them.
func (e *durableEngine) recoverImage(t *table, et *engTable, img *engIndex, rv map[uint64]int) error {
	idOf := func(rec uint64) (int, bool) {
		if et.intPK {
			id, ok := t.pkMap[cell.Int(recIDPK(rec))]
			return id, ok
		}
		id, ok := rv[rec]
		return id, ok
	}
	lo, hi := pager.TableBounds(img.id)
	scan := func(fn func(id int, vals Row) error) error {
		return e.store.Tree().Scan(lo, hi, func(k pager.Key, v []byte) error {
			id, ok := idOf(k.RecID())
			if !ok {
				return fmt.Errorf("rdb: recover: %s image of %q references missing record %d", img.kind, t.name, k.RecID())
			}
			vals, err := decodeRow(string(v))
			if err != nil {
				return err
			}
			if len(vals) != len(img.cols) {
				return fmt.Errorf("rdb: recover: %s image arity mismatch in %q", img.kind, t.name)
			}
			return fn(id, vals)
		})
	}
	switch img.kind {
	case "pk":
		if err := scan(func(id int, vals Row) error {
			if !vals[0].IsNull() {
				t.pkMap[indexKey(vals[0])] = id
				t.pkOrd.entries = append(t.pkOrd.entries, compEntry{key: vals, id: id})
			}
			return nil
		}); err != nil {
			return err
		}
		t.pkOrd.sortEntries()
		return nil
	case "unique":
		u := t.uniques[img.colNames[0]]
		if u == nil {
			u = make(map[cell.Cell]int)
			t.uniques[img.colNames[0]] = u
		}
		return scan(func(id int, vals Row) error {
			if k := indexKey(vals[0]); !k.IsNull() {
				u[k] = id
			}
			return nil
		})
	case "hash":
		idx := make(map[cell.Cell][]int)
		if err := scan(func(id int, vals Row) error {
			if k := indexKey(vals[0]); !k.IsNull() {
				idx[k] = append(idx[k], id)
			}
			return nil
		}); err != nil {
			return err
		}
		t.indexes[img.colNames[0]] = idx
		return nil
	case "ordered", "composite":
		ix := &compositeIndex{name: img.name, colNames: img.colNames, cols: img.cols}
		if err := scan(func(id int, vals Row) error {
			ix.entries = append(ix.entries, compEntry{key: vals, id: id})
			return nil
		}); err != nil {
			return err
		}
		ix.sortEntries()
		t.composites = append(t.composites, ix)
		return nil
	}
	return fmt.Errorf("rdb: recover: unknown image kind %q", img.kind)
}

// replaySQL runs one DDL statement against the in-memory tables and
// the engine registry.
func (e *durableEngine) replaySQL(sql string) error {
	st, err := ParseStatement(sql)
	if err != nil {
		return fmt.Errorf("rdb: recover DDL %q: %w", sql, err)
	}
	if _, err := e.db.execLocked(sql, st, nil, nil, nil); err != nil {
		return fmt.Errorf("rdb: recover DDL %q: %w", sql, err)
	}
	return e.applyDDL(sql)
}

// replayRecord applies one WAL record to both the in-memory tables and
// the B-tree (whose page file predates the record). The memory side
// goes first: updateRow and deleteRow fault the record's prior image
// through the tree, so the tree must still hold the old value.
func (e *durableEngine) replayRecord(rec *walRecord, rev map[string]map[uint64]int) error {
	tree := e.store.Tree()
	var f faultCtx
	for _, op := range rec.ops {
		switch op.kind {
		case wopDDL:
			// A replayed CREATE TABLE starts synthetic ids at 1; later
			// wopPut replays keep the counter ahead of every logged id.
			if err := e.replaySQL(op.sql); err != nil {
				return err
			}
		case wopPut:
			et := e.tables[op.table]
			t := e.db.tables[op.table]
			if et == nil || t == nil {
				return fmt.Errorf("rdb: recover: put into unknown table %q", op.table)
			}
			row, err := decodeRow(string(op.rowData))
			if err != nil {
				return err
			}
			if et.intPK {
				if id, ok := t.pkMap[cell.Int(recIDPK(op.recID))]; ok {
					if err := t.updateRow(id, row, &f); err != nil {
						return fmt.Errorf("rdb: recover %q: %w", op.table, err)
					}
				} else if _, err := t.insert(row); err != nil {
					return fmt.Errorf("rdb: recover %q: %w", op.table, err)
				}
			} else {
				rv := rev[op.table]
				if rv == nil {
					rv = make(map[uint64]int)
					rev[op.table] = rv
				}
				if id, ok := rv[op.recID]; ok {
					if err := t.updateRow(id, row, &f); err != nil {
						return fmt.Errorf("rdb: recover %q: %w", op.table, err)
					}
				} else {
					id, err := t.insert(row)
					if err != nil {
						return fmt.Errorf("rdb: recover %q: %w", op.table, err)
					}
					et.recOf[id] = op.recID
					rv[op.recID] = id
				}
				if op.recID >= et.nextRec {
					et.nextRec = op.recID + 1
				}
			}
			if err := e.putRecord(tree, et, op.recID, op.rowData, row); err != nil {
				return err
			}
		case wopDel:
			et := e.tables[op.table]
			t := e.db.tables[op.table]
			if et == nil || t == nil {
				return fmt.Errorf("rdb: recover: delete from unknown table %q", op.table)
			}
			if et.intPK {
				if id, ok := t.pkMap[cell.Int(recIDPK(op.recID))]; ok {
					t.deleteRow(id, &f)
				}
			} else if rv := rev[op.table]; rv != nil {
				if id, ok := rv[op.recID]; ok {
					t.deleteRow(id, &f)
					delete(et.recOf, id)
					delete(rv, op.recID)
				}
			}
			if err := e.delRecord(tree, et, op.recID); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderCreateTable reproduces a CREATE TABLE statement for the
// runtime schema, in the exact dialect the parser accepts.
func renderCreateTable(t *table) string {
	var b strings.Builder
	b.WriteString("CREATE TABLE ")
	b.WriteString(t.name)
	b.WriteString(" (")
	for i, col := range t.cols {
		c := col.def
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
		if c.PrimaryKey {
			b.WriteString(" PRIMARY KEY")
		}
		if c.AutoIncrement {
			b.WriteString(" AUTOINCREMENT")
		}
		if c.NotNull {
			b.WriteString(" NOT NULL")
		}
		if c.Unique {
			b.WriteString(" UNIQUE")
		}
	}
	for _, fk := range t.fks {
		b.WriteString(", FOREIGN KEY (")
		b.WriteString(fk.Column)
		b.WriteString(") REFERENCES ")
		b.WriteString(fk.RefTable)
		b.WriteString("(")
		b.WriteString(fk.RefColumn)
		b.WriteString(")")
	}
	b.WriteString(")")
	return b.String()
}
