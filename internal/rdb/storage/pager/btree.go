package pager

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
)

// B-tree page formats.
//
// Leaf (slotted page):
//	[0]    type = pageLeaf
//	[2:4]  nslots u16
//	[4:6]  cellTop u16 — lowest byte offset occupied by a cell
//	[6:8]  frag u16 — bytes freed by deletes, reclaimable by compaction
//	[8:]   slot directory, u16 cell offsets sorted by key
//	cells grow downward from the end of the page
//
// Leaf cell: key[12] ++ flag u8, then either
//	flag 0 (inline):   vlen u16 ++ value
//	flag 1 (overflow): total u32 ++ head PageID u32
//
// Interior (fixed arrays — fanout is capped so both fit):
//	[0]    type = pageInterior
//	[2:4]  nkeys u16
//	[8:]                children, u32 × (maxFanout+1)
//	[8+4(maxFanout+1):] separator keys, 12 B × maxFanout
//
// Child i holds keys in [key(i-1), key(i)): a separator is the first
// key of the subtree to its right.
//
// Overflow: [0] type ++ [2:4] len u16 ++ [4:8] next PageID ++ data.

// MaxInline is the largest value a leaf cell holds itself; a longer one
// lives in an overflow chain.
const MaxInline = 1024

const (
	keySize   = 12
	leafHdr   = 8
	maxFanout = 200
	intChild0 = 8
	intKey0   = intChild0 + 4*(maxFanout+1)
	ovfHdr    = 8
	ovfCap    = PageSize - ovfHdr
)

// Key is the fixed B-tree key: tableID ++ recID, both big-endian so
// byte order equals (table, record) order.
type Key [keySize]byte

// MakeKey builds the key for record rec of table t.
func MakeKey(t uint32, rec uint64) Key {
	var k Key
	binary.BigEndian.PutUint32(k[0:4], t)
	binary.BigEndian.PutUint64(k[4:12], rec)
	return k
}

// TableID extracts the table component.
func (k Key) TableID() uint32 { return binary.BigEndian.Uint32(k[0:4]) }

// RecID extracts the record component.
func (k Key) RecID() uint64 { return binary.BigEndian.Uint64(k[4:12]) }

// Less orders keys bytewise, i.e. by (table, record).
func (k Key) Less(o Key) bool { return bytes.Compare(k[:], o[:]) < 0 }

// MinKey and MaxKey bound the whole key space for full scans.
var (
	MinKey = Key{}
	MaxKey = Key{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
)

// TableBounds returns the inclusive key range holding every record of
// table t.
func TableBounds(t uint32) (Key, Key) {
	return MakeKey(t, 0), MakeKey(t, ^uint64(0))
}

// BTree is a disk-backed B-tree mounted on a buffer pool. Mutating
// methods must be externally serialized with every other method (the
// database write lock). Mutations mark the whole descent path dirty,
// preserving the checkpoint invariant that any page pointing at a
// dirty page is itself dirty.
type BTree struct {
	pool *Pool
	root PageID
	// free, when set, retires a dead page slot (freed overflow chains)
	// through the store's free list; otherwise the frame is dropped.
	free func(PageID)
}

// Root returns the current root page (it migrates as the tree splits).
func (t *BTree) Root() PageID { return t.root }

// --- leaf accessors ----------------------------------------------------

func leafN(d []byte) int       { return int(binary.LittleEndian.Uint16(d[2:4])) }
func setLeafN(d []byte, n int) { binary.LittleEndian.PutUint16(d[2:4], uint16(n)) }
func cellTop(d []byte) int     { return int(binary.LittleEndian.Uint16(d[4:6])) }
func setCellTop(d []byte, v int) {
	binary.LittleEndian.PutUint16(d[4:6], uint16(v))
}
func leafFrag(d []byte) int { return int(binary.LittleEndian.Uint16(d[6:8])) }
func setLeafFrag(d []byte, v int) {
	binary.LittleEndian.PutUint16(d[6:8], uint16(v))
}
func slotOff(d []byte, i int) int { return int(binary.LittleEndian.Uint16(d[leafHdr+2*i:])) }
func setSlotOff(d []byte, i, off int) {
	binary.LittleEndian.PutUint16(d[leafHdr+2*i:], uint16(off))
}

func cellKey(d []byte, off int) Key {
	var k Key
	copy(k[:], d[off:off+keySize])
	return k
}

func cellSize(d []byte, off int) int {
	if d[off+keySize] == 0 {
		return keySize + 3 + int(binary.LittleEndian.Uint16(d[off+keySize+1:]))
	}
	return keySize + 9
}

func leafFree(d []byte) int { return cellTop(d) - (leafHdr + 2*leafN(d)) }

// leafSearch binary-searches the slot directory; returns the slot
// index holding key (found=true) or the insertion position.
func leafSearch(d []byte, k Key) (int, bool) {
	lo, hi := 0, leafN(d)
	for lo < hi {
		mid := (lo + hi) / 2
		c := bytes.Compare(d[slotOff(d, mid):slotOff(d, mid)+keySize], k[:])
		switch {
		case c == 0:
			return mid, true
		case c < 0:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return lo, false
}

// packLeaf rewrites d as a fully compacted leaf holding cells (already
// in key order).
func packLeaf(d []byte, cells [][]byte) {
	for i := range d[:leafHdr] {
		d[i] = 0
	}
	d[0] = pageLeaf
	setLeafN(d, len(cells))
	off := PageSize
	for i := len(cells) - 1; i >= 0; i-- {
		off -= len(cells[i])
		copy(d[off:], cells[i])
		setSlotOff(d, i, off)
	}
	setCellTop(d, off)
	setLeafFrag(d, 0)
}

// gatherCells copies every cell out of d in slot order, into one arena:
// the cells lie between cellTop and the page end, so it never grows.
func gatherCells(d []byte) [][]byte {
	n := leafN(d)
	cells := make([][]byte, n)
	arena := make([]byte, 0, max(0, PageSize-cellTop(d)))
	for i := 0; i < n; i++ {
		off := slotOff(d, i)
		start := len(arena)
		arena = append(arena, d[off:off+cellSize(d, off)]...)
		cells[i] = arena[start:len(arena):len(arena)]
	}
	return cells
}

// insertLeafCell places cell at slot idx; the caller has verified
// leafFree(d) >= len(cell)+2.
func insertLeafCell(d []byte, idx int, cell []byte) {
	n := leafN(d)
	top := cellTop(d) - len(cell)
	copy(d[top:], cell)
	copy(d[leafHdr+2*(idx+1):leafHdr+2*(n+1)], d[leafHdr+2*idx:leafHdr+2*n])
	setSlotOff(d, idx, top)
	setLeafN(d, n+1)
	setCellTop(d, top)
}

// removeLeafCell drops slot idx, leaving the cell bytes as
// fragmentation to reclaim on the next compaction.
func removeLeafCell(d []byte, idx int) {
	n := leafN(d)
	off := slotOff(d, idx)
	setLeafFrag(d, leafFrag(d)+cellSize(d, off))
	copy(d[leafHdr+2*idx:leafHdr+2*(n-1)], d[leafHdr+2*(idx+1):leafHdr+2*n])
	setLeafN(d, n-1)
}

// --- interior accessors ------------------------------------------------

func intN(d []byte) int       { return int(binary.LittleEndian.Uint16(d[2:4])) }
func setIntN(d []byte, n int) { binary.LittleEndian.PutUint16(d[2:4], uint16(n)) }
func getChild(d []byte, i int) PageID {
	return PageID(binary.LittleEndian.Uint32(d[intChild0+4*i:]))
}
func setChild(d []byte, i int, id PageID) {
	binary.LittleEndian.PutUint32(d[intChild0+4*i:], uint32(id))
}
func getIntKey(d []byte, i int) Key {
	var k Key
	copy(k[:], d[intKey0+keySize*i:])
	return k
}
func setIntKey(d []byte, i int, k Key) { copy(d[intKey0+keySize*i:], k[:]) }

// intSearch returns the child index to descend into for key k: the
// first separator greater than k.
func intSearch(d []byte, k Key) int {
	lo, hi := 0, intN(d)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(d[intKey0+keySize*mid:intKey0+keySize*mid+keySize], k[:]) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// --- tree operations ---------------------------------------------------

type splitRes struct {
	split bool
	key   Key
	right PageID
}

// Put inserts or replaces the value for k.
func (t *BTree) Put(k Key, v []byte) error {
	sp, err := t.put(t.root, k, v)
	if err != nil {
		return err
	}
	if sp.split {
		pg := t.pool.Alloc()
		d := pg.Data()
		d[0] = pageInterior
		setIntN(d, 1)
		setChild(d, 0, t.root)
		setChild(d, 1, sp.right)
		setIntKey(d, 0, sp.key)
		t.root = pg.ID()
		pg.Release()
	}
	return nil
}

func (t *BTree) put(id PageID, k Key, v []byte) (splitRes, error) {
	pg, err := t.pool.Get(id)
	if err != nil {
		return splitRes{}, err
	}
	defer pg.Release()
	d := pg.Data()
	switch d[0] {
	case pageLeaf:
		return t.leafPut(pg, k, v)
	case pageInterior:
		i := intSearch(d, k)
		sp, err := t.put(getChild(d, i), k, v)
		if err != nil {
			return splitRes{}, err
		}
		// Dirty-path marking: the subtree below changed, so this page
		// must be rewritten by the next checkpoint even when no
		// separator moves (its child pointer may be relocated).
		pg.MarkDirty()
		if !sp.split {
			return splitRes{}, nil
		}
		n := intN(d)
		copy(d[intKey0+keySize*(i+1):intKey0+keySize*(n+1)], d[intKey0+keySize*i:intKey0+keySize*n])
		copy(d[intChild0+4*(i+2):intChild0+4*(n+2)], d[intChild0+4*(i+1):intChild0+4*(n+1)])
		setIntKey(d, i, sp.key)
		setChild(d, i+1, sp.right)
		n++
		setIntN(d, n)
		pg.MarkDirty()
		if n < maxFanout {
			return splitRes{}, nil
		}
		// Split: push the median separator up; its two neighbouring
		// child runs become the split halves.
		mid := n / 2
		sep := getIntKey(d, mid)
		rp := t.pool.Alloc()
		rd := rp.Data()
		rd[0] = pageInterior
		rn := n - mid - 1
		setIntN(rd, rn)
		for j := 0; j < rn; j++ {
			setIntKey(rd, j, getIntKey(d, mid+1+j))
		}
		for j := 0; j <= rn; j++ {
			setChild(rd, j, getChild(d, mid+1+j))
		}
		setIntN(d, mid)
		rightID := rp.ID()
		rp.Release()
		return splitRes{split: true, key: sep, right: rightID}, nil
	default:
		return splitRes{}, fmt.Errorf("pager: page %d: unexpected type %d in tree descent", id, d[0])
	}
}

func (t *BTree) leafPut(pg Page, k Key, v []byte) (splitRes, error) {
	d := pg.Data()
	idx, found := leafSearch(d, k)
	if found {
		t.freeOverflow(d, slotOff(d, idx))
		removeLeafCell(d, idx)
	}
	cell, err := t.makeCell(k, v)
	if err != nil {
		return splitRes{}, err
	}
	need := len(cell) + 2
	if leafFree(d) < need && leafFree(d)+leafFrag(d) >= need {
		packLeaf(d, gatherCells(d)) // in-place compaction reclaims frag
	}
	if leafFree(d) >= need {
		insertLeafCell(d, idx, cell)
		pg.MarkDirty()
		return splitRes{}, nil
	}
	// Split: redistribute all cells (plus the new one) by bytes.
	cells := gatherCells(d)
	cells = append(cells, nil)
	copy(cells[idx+1:], cells[idx:])
	cells[idx] = cell
	total := 0
	for _, c := range cells {
		total += len(c) + 2
	}
	m, acc := 0, 0
	for acc < total/2 && m < len(cells)-1 {
		acc += len(cells[m]) + 2
		m++
	}
	if m == 0 {
		m = 1
	}
	packLeaf(d, cells[:m])
	pg.MarkDirty()
	rp := t.pool.Alloc()
	packLeaf(rp.Data(), cells[m:])
	var sep Key
	copy(sep[:], cells[m][:keySize])
	rightID := rp.ID()
	rp.Release()
	return splitRes{split: true, key: sep, right: rightID}, nil
}

// makeCell encodes k/v as a leaf cell, spilling big values into a
// freshly allocated overflow chain.
func (t *BTree) makeCell(k Key, v []byte) ([]byte, error) {
	if len(v) <= MaxInline {
		cell := make([]byte, keySize+3+len(v))
		copy(cell, k[:])
		cell[keySize] = 0
		binary.LittleEndian.PutUint16(cell[keySize+1:], uint16(len(v)))
		copy(cell[keySize+3:], v)
		return cell, nil
	}
	// Allocate the chain first so each page can point at the next.
	nchunks := (len(v) + ovfCap - 1) / ovfCap
	pages := make([]Page, nchunks)
	for i := range pages {
		pages[i] = t.pool.Alloc()
	}
	for i, off := 0, 0; i < nchunks; i++ {
		n := len(v) - off
		if n > ovfCap {
			n = ovfCap
		}
		d := pages[i].Data()
		d[0] = pageOverflow
		binary.LittleEndian.PutUint16(d[2:4], uint16(n))
		if i+1 < nchunks {
			binary.LittleEndian.PutUint32(d[4:8], uint32(pages[i+1].ID()))
		}
		copy(d[ovfHdr:], v[off:off+n])
		off += n
	}
	head := pages[0].ID()
	for _, p := range pages {
		p.Release()
	}
	cell := make([]byte, keySize+9)
	copy(cell, k[:])
	cell[keySize] = 1
	binary.LittleEndian.PutUint32(cell[keySize+1:], uint32(len(v)))
	binary.LittleEndian.PutUint32(cell[keySize+5:], uint32(head))
	return cell, nil
}

// freeOverflow retires the overflow chain of the cell at off, if any,
// returning each chain page to the store's free list.
func (t *BTree) freeOverflow(d []byte, off int) {
	if d[off+keySize] != 1 {
		return
	}
	id := PageID(binary.LittleEndian.Uint32(d[off+keySize+5:]))
	for id != 0 {
		pg, err := t.pool.Get(id)
		if err != nil {
			return // unreadable chain page; leaks until compaction
		}
		next := PageID(binary.LittleEndian.Uint32(pg.Data()[4:8]))
		pg.Release()
		if t.free != nil {
			t.free(id)
		} else {
			t.pool.Forget(id)
		}
		id = next
	}
}

// cellValue materializes the value of the cell at off, following the
// overflow chain when present. The returned slice is a copy.
func (t *BTree) cellValue(d []byte, off int) ([]byte, error) {
	if d[off+keySize] == 0 {
		n := int(binary.LittleEndian.Uint16(d[off+keySize+1:]))
		return append([]byte(nil), d[off+keySize+3:off+keySize+3+n]...), nil
	}
	head := PageID(binary.LittleEndian.Uint32(d[off+keySize+5:]))
	return readChain(t.pool, head)
}

// seek descends to the leaf that would hold k. When k is present it
// returns that leaf pinned and the offset of k's cell; otherwise off is
// -1 and nothing stays pinned.
func (t *BTree) seek(k Key) (pg Page, off int, err error) {
	id := t.root
	for {
		if pg, err = t.pool.Get(id); err != nil {
			return pg, -1, err
		}
		d := pg.Data()
		switch d[0] {
		case pageInterior:
			id = getChild(d, intSearch(d, k))
			pg.Release()
		case pageLeaf:
			idx, found := leafSearch(d, k)
			if !found {
				pg.Release()
				return pg, -1, nil
			}
			return pg, slotOff(d, idx), nil
		default:
			pg.Release()
			return pg, -1, fmt.Errorf("pager: page %d: unexpected type %d", id, d[0])
		}
	}
}

// Get returns the value stored under k.
func (t *BTree) Get(k Key) ([]byte, bool, error) {
	pg, off, err := t.seek(k)
	if off < 0 {
		return nil, false, err
	}
	defer pg.Release()
	v, err := t.cellValue(pg.Data(), off)
	return v, true, err
}

// AppendString is Get for a caller that keeps many values: it appends the
// value stored under k to b, reporting whether k is present. A builder
// only appends, so the strings b returned before stay valid, and the
// caller keeps each value as a substring of b.String().
func (t *BTree) AppendString(k Key, b *strings.Builder) (bool, error) {
	pg, off, err := t.seek(k)
	if off < 0 {
		return false, err
	}
	defer pg.Release()
	d := pg.Data()
	if d[off+keySize] == 0 {
		n := int(binary.LittleEndian.Uint16(d[off+keySize+1:]))
		b.Write(d[off+keySize+3 : off+keySize+3+n])
		return true, nil
	}
	v, err := readChain(t.pool, PageID(binary.LittleEndian.Uint32(d[off+keySize+5:])))
	b.Write(v)
	return true, err
}

// Delete removes k, reporting whether it was present. Underfull
// leaves are left in place; checkpoints rewrite only dirty pages. The
// whole descent path is pinned so that, on a hit, every page above
// the mutated leaf can be marked dirty (dirty-path invariant).
func (t *BTree) Delete(k Key) (bool, error) {
	var path []Page
	release := func() {
		for _, p := range path {
			p.Release()
		}
	}
	id := t.root
	for {
		pg, err := t.pool.Get(id)
		if err != nil {
			release()
			return false, err
		}
		path = append(path, pg)
		d := pg.Data()
		switch d[0] {
		case pageInterior:
			id = getChild(d, intSearch(d, k))
		case pageLeaf:
			idx, found := leafSearch(d, k)
			if found {
				t.freeOverflow(d, slotOff(d, idx))
				removeLeafCell(d, idx)
				for _, p := range path {
					p.MarkDirty()
				}
			}
			release()
			return found, nil
		default:
			release()
			return false, fmt.Errorf("pager: page %d: unexpected type %d", id, d[0])
		}
	}
}

// Scan calls fn for every key in [lo, hi] in ascending order. The
// value slice passed to fn is only valid during the call.
func (t *BTree) Scan(lo, hi Key, fn func(k Key, v []byte) error) error {
	return t.scan(t.root, lo, hi, fn)
}

func (t *BTree) scan(id PageID, lo, hi Key, fn func(k Key, v []byte) error) error {
	pg, err := t.pool.Get(id)
	if err != nil {
		return err
	}
	defer pg.Release()
	d := pg.Data()
	switch d[0] {
	case pageLeaf:
		n := leafN(d)
		for i := 0; i < n; i++ {
			off := slotOff(d, i)
			k := cellKey(d, off)
			if k.Less(lo) {
				continue
			}
			if hi.Less(k) {
				return nil
			}
			v, err := t.cellValue(d, off)
			if err != nil {
				return err
			}
			if err := fn(k, v); err != nil {
				return err
			}
		}
		return nil
	case pageInterior:
		n := intN(d)
		for i := 0; i <= n; i++ {
			if i > 0 && hi.Less(getIntKey(d, i-1)) {
				return nil // child i's keys are all > hi
			}
			if i < n {
				// child i holds keys < key(i); skip it when they are
				// all below lo
				ki := getIntKey(d, i)
				if ki.Less(lo) || ki == lo {
					continue
				}
			}
			if err := t.scan(getChild(d, i), lo, hi, fn); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("pager: page %d: unexpected type %d", id, d[0])
	}
}

// ScanKeys calls fn for every key in [lo, hi] in ascending order
// without materializing values — overflow chains are never touched,
// so a key sweep over a large table stays proportional to the leaf
// count, not the data volume.
func (t *BTree) ScanKeys(lo, hi Key, fn func(k Key) error) error {
	return t.scanKeys(t.root, lo, hi, fn)
}

func (t *BTree) scanKeys(id PageID, lo, hi Key, fn func(k Key) error) error {
	pg, err := t.pool.Get(id)
	if err != nil {
		return err
	}
	defer pg.Release()
	d := pg.Data()
	switch d[0] {
	case pageLeaf:
		n := leafN(d)
		for i := 0; i < n; i++ {
			k := cellKey(d, slotOff(d, i))
			if k.Less(lo) {
				continue
			}
			if hi.Less(k) {
				return nil
			}
			if err := fn(k); err != nil {
				return err
			}
		}
		return nil
	case pageInterior:
		n := intN(d)
		for i := 0; i <= n; i++ {
			if i > 0 && hi.Less(getIntKey(d, i-1)) {
				return nil
			}
			if i < n {
				ki := getIntKey(d, i)
				if ki.Less(lo) || ki == lo {
					continue
				}
			}
			if err := t.scanKeys(getChild(d, i), lo, hi, fn); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("pager: page %d: unexpected type %d", id, d[0])
	}
}

// remapPage rewrites every outgoing page reference of d (interior
// child pointers, leaf overflow heads, overflow next links) through
// remap. Used by incremental checkpoints after relocating dirty pages.
func remapPage(d []byte, remap map[PageID]PageID) {
	if len(remap) == 0 {
		return
	}
	switch d[0] {
	case pageInterior:
		n := intN(d)
		for i := 0; i <= n; i++ {
			if next, ok := remap[getChild(d, i)]; ok {
				setChild(d, i, next)
			}
		}
	case pageLeaf:
		n := leafN(d)
		for i := 0; i < n; i++ {
			off := slotOff(d, i)
			if d[off+keySize] != 1 {
				continue
			}
			head := PageID(binary.LittleEndian.Uint32(d[off+keySize+5:]))
			if next, ok := remap[head]; ok {
				binary.LittleEndian.PutUint32(d[off+keySize+5:], uint32(next))
			}
		}
	case pageOverflow:
		next := PageID(binary.LittleEndian.Uint32(d[4:8]))
		if nn, ok := remap[next]; ok {
			binary.LittleEndian.PutUint32(d[4:8], uint32(nn))
		}
	}
}
