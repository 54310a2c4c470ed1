package rdb

import (
	"sort"

	"webmlgo/internal/cell"
)

// orderedIndex is a sorted secondary index supporting range scans for
// inequality predicates (<, <=, >, >=, BETWEEN). Entries are kept sorted
// by (value, rowID); NULLs are not indexed.
type orderedIndex struct {
	entries []ordEntry
}

type ordEntry struct {
	val cell.Cell
	id  int
}

// search returns the position of the first entry >= (v, id).
func (ix *orderedIndex) search(v cell.Cell, id int) int {
	return sort.Search(len(ix.entries), func(i int) bool { return !ordLess(ix.entries[i], ordEntry{v, id}) })
}

// insert keeps entries sorted. A key past the current end — ascending
// primary keys, recovery's key-order scan — appends without a search;
// any other position shifts the tail, so non-monotonic bulk loads cost
// O(n) each.
func (ix *orderedIndex) insert(v cell.Cell, id int) {
	pos := len(ix.entries)
	if pos > 0 && !ordLess(ix.entries[pos-1], ordEntry{v, id}) {
		pos = ix.search(v, id)
	}
	ix.entries = append(ix.entries, ordEntry{})
	copy(ix.entries[pos+1:], ix.entries[pos:])
	ix.entries[pos] = ordEntry{val: v, id: id}
}

func (ix *orderedIndex) remove(v cell.Cell, id int) {
	pos := ix.search(v, id)
	if pos < len(ix.entries) && ix.entries[pos].id == id {
		if c, err := compare(ix.entries[pos].val, v); err == nil && c == 0 {
			ix.entries = append(ix.entries[:pos], ix.entries[pos+1:]...)
		}
	}
}

// ordLess is the entry order: by value, then row id. Heterogeneous
// values cannot occur: column values are coerced to the column type on
// insert.
func ordLess(a, b ordEntry) bool {
	if c, err := compare(a.val, b.val); err == nil && c != 0 {
		return c < 0
	}
	return a.id < b.id
}

// sortOrdEntries puts entries collected in any order (an index image
// scan yields record order) into entry order.
func sortOrdEntries(ents []ordEntry) {
	sort.Slice(ents, func(a, b int) bool { return ordLess(ents[a], ents[b]) })
}

// rangeBound is one side of a range scan.
type rangeBound struct {
	val       cell.Cell
	inclusive bool
	set       bool
}

// bounds returns the half-open entry range with lo <= val <= hi
// (subject to the bounds' inclusivity); unset bounds are open.
func (ix *orderedIndex) bounds(lo, hi rangeBound) (int, int) {
	start := 0
	if lo.set {
		start = sort.Search(len(ix.entries), func(i int) bool {
			c, err := compare(ix.entries[i].val, lo.val)
			if err != nil {
				return true
			}
			if lo.inclusive {
				return c >= 0
			}
			return c > 0
		})
	}
	end := len(ix.entries)
	if hi.set {
		end = sort.Search(len(ix.entries), func(i int) bool {
			c, err := compare(ix.entries[i].val, hi.val)
			if err != nil {
				return true
			}
			if hi.inclusive {
				return c > 0
			}
			return c >= 0
		})
	}
	if end < start {
		end = start
	}
	return start, end
}

// scan returns the row ids inside bounds(lo, hi), ascending.
func (ix *orderedIndex) scan(lo, hi rangeBound) []int {
	start, end := ix.bounds(lo, hi)
	ids := make([]int, 0, end-start)
	for _, e := range ix.entries[start:end] {
		ids = append(ids, e.id)
	}
	sort.Ints(ids)
	return ids
}

// createOrderedIndex builds a sorted index over one column.
func (t *table) createOrderedIndex(colName string) error {
	lower := lowerKey(colName)
	i, ok := t.colIdx[lower]
	if !ok {
		return errNoColumn(t.name, colName)
	}
	if _, exists := t.ordered[lower]; exists {
		return nil
	}
	var f faultCtx
	ix := &orderedIndex{}
	for id := range t.rows {
		r, err := t.readRow(id, allCols, &f)
		if err != nil {
			return err
		}
		if r == nil || r[i].IsNull() {
			continue
		}
		ix.insert(r[i], id)
	}
	t.ordered[lower] = ix
	return nil
}

// orderedOn returns the sorted index over a column (lower-cased name):
// the primary key's own, or one CREATE ORDERED INDEX built. Nil if none.
func (t *table) orderedOn(col string) *orderedIndex {
	if i, ok := t.colIdx[col]; ok && i == t.pk {
		return t.pkOrd
	}
	return t.ordered[col]
}
