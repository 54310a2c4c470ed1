package rdb

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"webmlgo/internal/cell"
)

// Row is one stored tuple, one cell per column in the table's column
// order.
type Row []cell.Cell

// column is the runtime schema of one column.
type column struct {
	def ColumnDef
}

// table is the runtime representation of a relation: schema, row storage,
// the primary key's map and order, and secondary hash and sorted indexes.
type table struct {
	name    string
	cols    []column
	colIdx  map[string]int // lower(name) -> position
	pk      int            // primary key column position, -1 if none
	autoInc int64
	fks     []ForeignKeyDef

	// rows holds one slot per row id: the row, nil once deleted, or, in a
	// paging engine's table, an eviction marker once a commit is applied.
	rows  []Row
	alive int // count of live rows
	// fetch, when a paging engine backs the table, materializes an
	// evicted record with at least the columns need names decoded from
	// the row cache or the page store, copying into f's chunks. A record
	// that does not exist is a nil row, one that cannot be read an error.
	// Nil on purely in-memory tables.
	fetch func(rec uint64, need colMask, f *faultCtx) (Row, error)
	// pkByRec marks int-keyed engine tables whose record ids are the
	// primary-key values themselves (recID = pkRecID(pk)), so a fault
	// error can name the record by its key.
	pkByRec bool
	pkMap   map[cell.Cell]int // keyed by indexKey, like every index map
	// pkOrd is a one-column sorted index over the primary key: what the
	// schema already says about ORDER BY pk and pk ranges. It is nil
	// without a primary key, is never persisted (pkMap's sources rebuild
	// it) and is not listed in composites, so catalogs and Describe do
	// not see it.
	pkOrd *compositeIndex
	// indexes maps lower(column name) -> value -> row ids. The primary key
	// is indexed through pkMap and pkOrd instead.
	indexes map[string]map[cell.Cell][]int
	uniques map[string]map[cell.Cell]int
	// composites are the sorted indexes CREATE INDEX over several columns
	// and CREATE ORDERED INDEX over one built (see index.go).
	composites []*compositeIndex
}

func errNoColumn(table, col string) error {
	return fmt.Errorf("rdb: no column %q in table %q", col, table)
}

// kEvicted is the kind of the single cell of an eviction marker: a row
// slot whose data was paged out, holding only the storage-engine record
// id (Num) needed to fault it back in. No value has the kind. Index
// structures keep the slot's row id, so markers are invisible to
// access-path selection.
const kEvicted cell.Kind = 0xff

// evictedRowMark cuts the eviction marker of record rec from s, so the
// markers a change-set or a recovery leaves share their allocations.
func evictedRowMark(s *slab[cell.Cell], rec uint64) Row {
	m := s.cut(1)
	m[0] = cell.Cell{Kind: kEvicted, Num: rec}
	return m
}

// evictedRec reports whether r is an eviction marker and, if so, the
// record id it points at.
func evictedRec(r Row) (uint64, bool) {
	if len(r) == 1 && r[0].Kind == kEvicted {
		return r[0].Num, true
	}
	return 0, false
}

// readRow returns the row in slot id with at least the columns need names
// decoded (an evicted slot's others may be nil), or nil for a deleted
// slot. An evicted row comes from the storage engine's row cache or is
// faulted in into f's chunks; the slot stays a marker, and the row must
// be treated as immutable. A fault that finds no good image is an error:
// the slot says the record exists.
func (t *table) readRow(id int, need colMask, f *faultCtx) (Row, error) {
	r := t.rows[id]
	rec, evicted := evictedRec(r)
	if !evicted {
		return r, nil
	}
	if t.fetch != nil {
		if r, err := t.fetch(rec, need, f); r != nil || err != nil {
			return r, err
		}
	}
	return nil, errCorrupt(t.name, rec, t.pkByRec, errors.New("not in the page store"))
}

// errCorrupt is the error of a fault that found no good image of record
// rec, wrapping its cause. A record whose id is its integer primary key
// is named by the key.
func errCorrupt(table string, rec uint64, byKey bool, cause error) error {
	if byKey {
		return fmt.Errorf("rdb: corrupt record with key %d of %q: %w", recIDPK(rec), table, cause)
	}
	return fmt.Errorf("rdb: corrupt record %d of %q: %w", rec, table, cause)
}

func newTable(st *CreateTableStmt) (*table, error) {
	t := &table{
		name:    st.Name,
		pk:      -1,
		colIdx:  make(map[string]int, len(st.Columns)),
		pkMap:   make(map[cell.Cell]int),
		indexes: make(map[string]map[cell.Cell][]int),
		uniques: make(map[string]map[cell.Cell]int),
		fks:     st.ForeignKeys,
	}
	for i, cd := range st.Columns {
		lower := strings.ToLower(cd.Name)
		if _, dup := t.colIdx[lower]; dup {
			return nil, fmt.Errorf("rdb: duplicate column %q in table %q", cd.Name, st.Name)
		}
		t.colIdx[lower] = i
		t.cols = append(t.cols, column{def: cd})
		if cd.PrimaryKey {
			if t.pk >= 0 {
				return nil, fmt.Errorf("rdb: table %q has multiple primary keys", st.Name)
			}
			t.pk = i
			t.pkOrd = &compositeIndex{colNames: []string{lower}, cols: []int{i}}
		}
		if cd.Unique {
			t.uniques[lower] = make(map[cell.Cell]int)
		}
	}
	for _, fk := range st.ForeignKeys {
		if _, ok := t.colIdx[strings.ToLower(fk.Column)]; !ok {
			return nil, fmt.Errorf("rdb: foreign key on unknown column %q in %q", fk.Column, st.Name)
		}
	}
	return t, nil
}

func (t *table) columnNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.def.Name
	}
	return names
}

func (t *table) col(name string) (int, bool) {
	i, ok := t.colIdx[strings.ToLower(name)]
	return i, ok
}

// insert stores a new row (already coerced to column types) and maintains
// the primary key and secondary indexes. It returns the row id.
func (t *table) insert(r Row) (int, error) {
	if t.pk >= 0 {
		pkv := r[t.pk]
		if pkv.IsNull() {
			if !t.cols[t.pk].def.AutoIncrement {
				return 0, fmt.Errorf("rdb: NULL primary key in table %q", t.name)
			}
			t.autoInc++
			pkv = cell.Int(t.autoInc)
			r[t.pk] = pkv
		} else if pkv.Kind == cell.KInt && pkv.Int() > t.autoInc {
			t.autoInc = pkv.Int()
		}
		if _, exists := t.pkMap[indexKey(pkv)]; exists {
			return 0, fmt.Errorf("rdb: duplicate primary key %v in table %q", pkv.Value(), t.name)
		}
	}
	for colName, u := range t.uniques {
		i := t.colIdx[colName]
		if r[i].IsNull() {
			continue
		}
		if _, exists := u[indexKey(r[i])]; exists {
			return 0, fmt.Errorf("rdb: unique constraint violated on %s.%s", t.name, colName)
		}
	}
	for i, c := range t.cols {
		if c.def.NotNull && r[i].IsNull() && !(i == t.pk && c.def.AutoIncrement) {
			return 0, fmt.Errorf("rdb: NULL in NOT NULL column %s.%s", t.name, c.def.Name)
		}
	}
	id := len(t.rows)
	t.rows = append(t.rows, r)
	t.alive++
	t.indexRow(id, r)
	return id, nil
}

func (t *table) indexRow(id int, r Row) {
	if t.pk >= 0 && !r[t.pk].IsNull() {
		t.pkMap[indexKey(r[t.pk])] = id
		t.pkOrd.insert(r, id)
	}
	for colName, idx := range t.indexes {
		if k := indexKey(r[t.colIdx[colName]]); !k.IsNull() {
			ids := append(idx[k], id)
			if len(ids) > 1 && ids[len(ids)-2] > id {
				sort.Ints(ids) // an old row re-filed (UPDATE, undo): buckets stay in row-id order
			}
			idx[k] = ids
		}
	}
	for colName, u := range t.uniques {
		if k := indexKey(r[t.colIdx[colName]]); !k.IsNull() {
			u[k] = id
		}
	}
	for _, ix := range t.composites {
		ix.insert(r, id)
	}
}

func (t *table) unindexRow(id int, r Row) {
	if t.pk >= 0 && !r[t.pk].IsNull() {
		delete(t.pkMap, indexKey(r[t.pk]))
		t.pkOrd.remove(r, id)
	}
	for colName, idx := range t.indexes {
		k := indexKey(r[t.colIdx[colName]])
		if k.IsNull() {
			continue
		}
		ids := idx[k]
		for j, rid := range ids {
			if rid == id {
				ids = append(ids[:j], ids[j+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(idx, k)
		} else {
			idx[k] = ids
		}
	}
	for colName, u := range t.uniques {
		if k := indexKey(r[t.colIdx[colName]]); !k.IsNull() {
			delete(u, k)
		}
	}
	for _, ix := range t.composites {
		ix.remove(r, id)
	}
}

// deleteRow tombstones the row and fixes indexes. It returns the old
// row, faulting it in first when the slot was evicted (indexes are
// unwound against real column values).
func (t *table) deleteRow(id int, f *faultCtx) Row {
	// A failed read deletes nothing: DELETE's plan read the row already; undo and replay cannot fail.
	r, _ := t.readRow(id, allCols, f)
	if r == nil {
		return nil
	}
	t.unindexRow(id, r)
	t.rows[id] = nil
	t.alive--
	return r
}

// restoreRow undoes a delete (transaction rollback support): slot is
// what the slot held before, the row itself or its eviction marker, and
// r the row indexes file.
func (t *table) restoreRow(id int, slot, r Row) {
	t.rows[id] = slot
	t.alive++
	t.indexRow(id, r)
}

// updateRow replaces the row in place, maintaining indexes, after checking
// uniqueness constraints for the new image and reading the old one.
func (t *table) updateRow(id int, newRow Row, f *faultCtx) error {
	old, err := t.readRow(id, allCols, f)
	if err != nil {
		return err
	}
	if t.pk >= 0 {
		if k := indexKey(newRow[t.pk]); k != indexKey(old[t.pk]) {
			if k.IsNull() {
				return fmt.Errorf("rdb: NULL primary key in table %q", t.name)
			}
			if other, exists := t.pkMap[k]; exists && other != id {
				return fmt.Errorf("rdb: duplicate primary key %v in table %q", k.Value(), t.name)
			}
		}
	}
	for colName, u := range t.uniques {
		i := t.colIdx[colName]
		k := indexKey(newRow[i])
		if k.IsNull() || k == indexKey(old[i]) {
			continue
		}
		if other, exists := u[k]; exists && other != id {
			return fmt.Errorf("rdb: unique constraint violated on %s.%s", t.name, colName)
		}
	}
	for i, c := range t.cols {
		if c.def.NotNull && newRow[i].IsNull() {
			return fmt.Errorf("rdb: NULL in NOT NULL column %s.%s", t.name, c.def.Name)
		}
	}
	t.unindexRow(id, old)
	t.rows[id] = newRow
	t.indexRow(id, newRow)
	return nil
}

// createIndex builds a hash index over one column.
func (t *table) createIndex(colName string) error {
	lower := strings.ToLower(colName)
	i, ok := t.colIdx[lower]
	if !ok {
		return fmt.Errorf("rdb: no column %q in table %q", colName, t.name)
	}
	if _, exists := t.indexes[lower]; exists {
		return nil
	}
	var f faultCtx
	idx := make(map[cell.Cell][]int)
	for id := range t.rows {
		r, err := t.readRow(id, allCols, &f)
		if err != nil {
			return err
		}
		if r == nil || r[i].IsNull() {
			continue
		}
		k := indexKey(r[i])
		idx[k] = append(idx[k], id)
	}
	t.indexes[lower] = idx
	return nil
}

// lookup returns candidate row ids for col = v via the best access path:
// primary key map, secondary index, or full scan.
func (t *table) lookup(colName string, v cell.Cell) ([]int, bool) {
	lower := strings.ToLower(colName)
	i, ok := t.colIdx[lower]
	if !ok {
		return nil, false
	}
	v = probeKey(v, t.cols[i].def.Type)
	u := t.uniques[lower]
	if i == t.pk {
		u = t.pkMap
	} else if idx, ok := t.indexes[lower]; ok {
		return idx[v], true
	}
	if id, ok := u[v]; ok {
		return []int{id}, true
	}
	return nil, u != nil
}
