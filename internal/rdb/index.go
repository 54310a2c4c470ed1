package rdb

import "sort"

// compositeIndex is a multi-column sorted secondary index. Entries are
// kept ordered by the column tuple — NULLs first, mirroring ORDER BY
// ASC semantics — then by row id, so an equality prefix becomes a
// binary search, a range predicate on the column after the prefix
// narrows the same segment, and ORDER BY over the key columns can read
// rows in index order with no sort. Unlike the single-column
// orderedIndex, rows with NULL key values are indexed, which makes a
// full index walk a complete ordered view of the table.
type compositeIndex struct {
	name     string
	colNames []string // lower-cased, in key order
	cols     []int    // column positions, parallel to colNames
	entries  []compEntry
}

type compEntry struct {
	key []Value
	id  int
}

// compareNullable orders two values with SQL ORDER BY ASC semantics:
// NULL sorts before everything. Heterogeneous non-nil values cannot
// occur inside one column (values are coerced to the column type on
// insert), so the compareValues error branch is unreachable in keys.
func compareNullable(a, b Value) int {
	if a == nil {
		if b == nil {
			return 0
		}
		return -1
	}
	if b == nil {
		return 1
	}
	c, err := compareValues(a, b)
	if err != nil {
		return 0
	}
	return c
}

// compareTuplePrefix lexicographically compares the first n columns of
// two keys.
func compareTuplePrefix(a, b []Value, n int) int {
	for i := 0; i < n; i++ {
		if c := compareNullable(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func (ix *compositeIndex) keyOf(r Row) []Value {
	key := make([]Value, len(ix.cols))
	for i, c := range ix.cols {
		key[i] = r[c]
	}
	return key
}

// search returns the position of the first entry >= (key, id).
func (ix *compositeIndex) search(key []Value, id int) int {
	return sort.Search(len(ix.entries), func(i int) bool {
		e := &ix.entries[i]
		if c := compareTuplePrefix(e.key, key, len(key)); c != 0 {
			return c > 0
		}
		return e.id >= id
	})
}

func (ix *compositeIndex) insert(r Row, id int) {
	key := ix.keyOf(r)
	pos := ix.search(key, id)
	ix.entries = append(ix.entries, compEntry{})
	copy(ix.entries[pos+1:], ix.entries[pos:])
	ix.entries[pos] = compEntry{key: key, id: id}
}

func (ix *compositeIndex) remove(r Row, id int) {
	key := ix.keyOf(r)
	pos := ix.search(key, id)
	if pos < len(ix.entries) && ix.entries[pos].id == id &&
		compareTuplePrefix(ix.entries[pos].key, key, len(key)) == 0 {
		ix.entries = append(ix.entries[:pos], ix.entries[pos+1:]...)
	}
}

// eqRange returns the half-open entry range whose keys start with the
// given prefix values.
func (ix *compositeIndex) eqRange(prefix []Value) (int, int) {
	n := len(prefix)
	start := sort.Search(len(ix.entries), func(i int) bool {
		return compareTuplePrefix(ix.entries[i].key, prefix, n) >= 0
	})
	end := sort.Search(len(ix.entries), func(i int) bool {
		return compareTuplePrefix(ix.entries[i].key, prefix, n) > 0
	})
	return start, end
}

// rangeSegment narrows the prefix segment with lo/hi bounds on the
// column right after the prefix. Entries whose bounded column is NULL
// sort first; a set lower bound therefore excludes them, while a
// hi-only range keeps them (the residual WHERE filters them out).
func (ix *compositeIndex) rangeSegment(prefix []Value, lo, hi rangeBound) (int, int) {
	start, end := ix.eqRange(prefix)
	k := len(prefix)
	seg := ix.entries[start:end]
	if lo.set {
		off := sort.Search(len(seg), func(i int) bool {
			c := compareNullable(seg[i].key[k], lo.val)
			if lo.inclusive {
				return c >= 0
			}
			return c > 0
		})
		start += off
		seg = ix.entries[start:end]
	}
	if hi.set {
		off := sort.Search(len(seg), func(i int) bool {
			c := compareNullable(seg[i].key[k], hi.val)
			if hi.inclusive {
				return c > 0
			}
			return c >= 0
		})
		end = start + off
	}
	return start, end
}

// ids returns the row ids of entries[start:end], ascending.
func (ix *compositeIndex) ids(start, end int) []int {
	ids := make([]int, 0, end-start)
	for _, e := range ix.entries[start:end] {
		ids = append(ids, e.id)
	}
	sort.Ints(ids)
	return ids
}

// distinctPrefixes counts the distinct values of the first n key
// columns — the cardinality input of the cost model.
func (ix *compositeIndex) distinctPrefixes(n int) int {
	count := 0
	for i := range ix.entries {
		if i == 0 || compareTuplePrefix(ix.entries[i].key, ix.entries[i-1].key, n) != 0 {
			count++
		}
	}
	return count
}

// createCompositeIndex builds one sorted multi-column index. Recreating
// an index over the same column list is a no-op.
func (t *table) createCompositeIndex(name string, colNames []string) error {
	lows := make([]string, len(colNames))
	cols := make([]int, len(colNames))
	for i, cn := range colNames {
		lower := lowerKey(cn)
		pos, ok := t.colIdx[lower]
		if !ok {
			return errNoColumn(t.name, cn)
		}
		lows[i] = lower
		cols[i] = pos
	}
	for _, ex := range t.composites {
		if sameColumnList(ex.colNames, lows) {
			return nil
		}
	}
	var f faultCtx
	ix := &compositeIndex{name: name, colNames: lows, cols: cols}
	for id := range t.rows {
		r, err := t.readRow(id, allCols, &f)
		if err != nil {
			return err
		}
		if r == nil {
			continue
		}
		ix.entries = append(ix.entries, compEntry{key: ix.keyOf(r), id: id})
	}
	sort.SliceStable(ix.entries, func(a, b int) bool {
		ea, eb := &ix.entries[a], &ix.entries[b]
		if c := compareTuplePrefix(ea.key, eb.key, len(cols)); c != 0 {
			return c < 0
		}
		return ea.id < eb.id
	})
	t.composites = append(t.composites, ix)
	return nil
}

// compositeLedBy returns the first composite index whose leading column
// is col, or nil.
func (t *table) compositeLedBy(col string) *compositeIndex {
	lower := lowerKey(col)
	for _, ix := range t.composites {
		if ix.colNames[0] == lower {
			return ix
		}
	}
	return nil
}

func sameColumnList(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
