// Package pager implements the page store of the durable engine: a
// single file of fixed 4 KiB pages holding a B-tree keyed by
// (tableID, recID), fronted by an LRU buffer pool.
//
// Durability model (no-steal, incremental copy-on-write checkpoints).
// Mutations dirty pages in the buffer pool only; dirty frames are
// never evicted or written back between checkpoints, so the on-disk
// image always is a complete, internally consistent checkpoint and
// everything since it replays from the WAL. A checkpoint relocates the
// dirty pages to free or fresh page slots (never overwriting a page
// the committed image references), rewrites intra-tree pointers to the
// relocated copies, fsyncs, and then publishes the new root/catalog/
// sequence by writing the inactive one of two alternating meta slots
// (pages 0 and 1) — the slot with the highest valid generation wins at
// open, so a torn meta write simply falls back to the previous
// checkpoint. Checkpoint I/O is proportional to the dirty set, not the
// database size. Page slots vacated by a checkpoint become allocatable
// one checkpoint later (their content backs the previous image until
// the next meta flip makes it unreachable); the free list is held in
// memory only, so a reopen temporarily forgets the holes and the file
// stays at its high-water mark until later checkpoints re-punch them.
package pager

import (
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// PageSize is the fixed page length. Every offset in the file is a
// multiple of it; PageID n lives at byte n*PageSize.
const PageSize = 4096

const (
	fileMagic   = 0x574D4C50 // "WMLP"
	fileVersion = 2

	pageLeaf     = 1
	pageInterior = 2
	pageOverflow = 3
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// PageID identifies a page by position; 0 and 1 are the meta slots.
type PageID uint32

// Meta is a decoded meta slot: the recovery anchor for the file.
type Meta struct {
	// Gen increases by one per checkpoint; of the two slots, the valid
	// one with the higher generation is authoritative.
	Gen uint64
	// CheckpointSeq is the commit sequence number this image captures;
	// WAL records at or below it are redundant and skipped on replay.
	CheckpointSeq uint64
	// Root is the B-tree root page.
	Root PageID
	// NPages is the allocation high-water mark (file length / PageSize).
	NPages uint32
	// CatalogHead is the first page of the schema-catalog chain (0 = empty).
	CatalogHead PageID
}

func encodeMeta(m Meta) []byte {
	d := make([]byte, PageSize)
	binary.LittleEndian.PutUint32(d[0:4], fileMagic)
	binary.LittleEndian.PutUint32(d[4:8], fileVersion)
	binary.LittleEndian.PutUint64(d[8:16], m.CheckpointSeq)
	binary.LittleEndian.PutUint32(d[16:20], uint32(m.Root))
	binary.LittleEndian.PutUint32(d[20:24], m.NPages)
	binary.LittleEndian.PutUint32(d[24:28], uint32(m.CatalogHead))
	binary.LittleEndian.PutUint64(d[28:36], m.Gen)
	binary.LittleEndian.PutUint32(d[36:40], crc32.Checksum(d[0:36], castagnoli))
	return d
}

func decodeMeta(d []byte) (Meta, error) {
	if len(d) < 40 {
		return Meta{}, errors.New("pager: short meta page")
	}
	if binary.LittleEndian.Uint32(d[0:4]) != fileMagic {
		return Meta{}, errors.New("pager: bad magic")
	}
	if v := binary.LittleEndian.Uint32(d[4:8]); v != fileVersion {
		return Meta{}, fmt.Errorf("pager: unsupported version %d", v)
	}
	if crc32.Checksum(d[0:36], castagnoli) != binary.LittleEndian.Uint32(d[36:40]) {
		return Meta{}, errors.New("pager: meta checksum mismatch")
	}
	return Meta{
		CheckpointSeq: binary.LittleEndian.Uint64(d[8:16]),
		Root:          PageID(binary.LittleEndian.Uint32(d[16:20])),
		NPages:        binary.LittleEndian.Uint32(d[20:24]),
		CatalogHead:   PageID(binary.LittleEndian.Uint32(d[24:28])),
		Gen:           binary.LittleEndian.Uint64(d[28:36]),
	}, nil
}

// PoolStats is a snapshot of buffer-pool counters.
type PoolStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Resident  int // frames currently cached
	Dirty     int // of those, dirtied since the last checkpoint
	Pinned    int // frames with at least one active pin
}

// Pool is the buffer pool: an LRU cache of page frames over the file.
// Only clean, unpinned frames are evicted; dirty frames are pinned in
// memory until the next checkpoint relocates them (no-steal).
type Pool struct {
	mu     sync.Mutex
	f      *os.File
	cap    int
	frames map[PageID]*frame
	lru    *list.List // of *frame; front = most recently used
	npages uint32
	// alloc, when set, may supply a recycled page slot before the file
	// is extended. Called with mu held; must not reenter the pool.
	alloc func() (PageID, bool)

	hits, misses, evictions atomic.Uint64
}

type frame struct {
	id    PageID
	data  []byte
	dirty bool
	// fresh marks a frame allocated since the last checkpoint: its slot
	// is not referenced by the committed image, so the checkpoint may
	// write it in place instead of relocating it.
	fresh bool
	pins  int
	elem  *list.Element
}

// Page is a pinned view of one page. Release it when done; the Data
// slice must not be used after Release if the page was not dirtied.
type Page struct {
	fr   *frame
	pool *Pool
}

func (p Page) ID() PageID   { return p.fr.id }
func (p Page) Data() []byte { return p.fr.data }

// MarkDirty pins the frame's contents into the pool until the next
// checkpoint: dirty frames are never evicted or written back.
func (p Page) MarkDirty() {
	p.pool.mu.Lock()
	p.fr.dirty = true
	p.pool.mu.Unlock()
}

// Release drops the pin taken by Get/Alloc.
func (p Page) Release() {
	p.pool.mu.Lock()
	p.fr.pins--
	p.pool.mu.Unlock()
}

func newPool(f *os.File, capPages int, npages uint32) *Pool {
	if capPages <= 0 {
		capPages = 2048 // 8 MiB default
	}
	return &Pool{f: f, cap: capPages, frames: make(map[PageID]*frame), lru: list.New(), npages: npages}
}

// Get pins page id, reading it from the file on a miss.
func (p *Pool) Get(id PageID) (Page, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr, ok := p.frames[id]; ok {
		fr.pins++
		p.lru.MoveToFront(fr.elem)
		p.hits.Add(1)
		return Page{fr: fr, pool: p}, nil
	}
	p.misses.Add(1)
	if id < 2 || id >= PageID(p.npages) {
		return Page{}, fmt.Errorf("pager: page %d out of range [2,%d)", id, p.npages)
	}
	data := make([]byte, PageSize)
	if _, err := p.f.ReadAt(data, int64(id)*PageSize); err != nil {
		return Page{}, fmt.Errorf("pager: read page %d: %w", id, err)
	}
	fr := &frame{id: id, data: data, pins: 1}
	fr.elem = p.lru.PushFront(fr)
	p.frames[id] = fr
	p.evictLocked()
	return Page{fr: fr, pool: p}, nil
}

// Alloc creates a fresh page, reusing a recycled slot when the
// allocator hook offers one. It exists only in the pool (dirty) until
// a checkpoint persists its contents.
func (p *Pool) Alloc() Page {
	p.mu.Lock()
	defer p.mu.Unlock()
	var id PageID
	if p.alloc != nil {
		if got, ok := p.alloc(); ok {
			id = got
		}
	}
	if id == 0 {
		id = PageID(p.npages)
		p.npages++
	}
	p.dropLocked(id) // a recycled slot may still have a stale resident frame
	fr := &frame{id: id, data: make([]byte, PageSize), dirty: true, fresh: true, pins: 1}
	fr.elem = p.lru.PushFront(fr)
	p.frames[id] = fr
	return Page{fr: fr, pool: p}
}

// forget drops a frame whose contents are dead (freed overflow
// chains). Reports whether the slot was fresh (allocated since the
// last checkpoint, so not referenced by the committed image).
func (p *Pool) forget(id PageID) (fresh bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fr, ok := p.frames[id]; ok {
		fresh = fr.fresh
		if fr.pins == 0 {
			p.lru.Remove(fr.elem)
			delete(p.frames, id)
		}
	}
	return fresh
}

// drop removes any resident frame for id unconditionally — used when a
// recycled slot is about to receive new content, so a stale frame must
// not shadow it. Holders of an outstanding pin keep their reference;
// the pool just forgets the mapping.
func (p *Pool) drop(id PageID) {
	p.mu.Lock()
	p.dropLocked(id)
	p.mu.Unlock()
}

func (p *Pool) dropLocked(id PageID) {
	if fr, ok := p.frames[id]; ok {
		p.lru.Remove(fr.elem)
		delete(p.frames, id)
	}
}

func (p *Pool) evictLocked() {
	for len(p.frames) > p.cap {
		evicted := false
		for e := p.lru.Back(); e != nil; e = e.Prev() {
			fr := e.Value.(*frame)
			if fr.dirty || fr.pins > 0 {
				continue // no-steal: dirty stays; pinned is in use
			}
			p.lru.Remove(e)
			delete(p.frames, fr.id)
			p.evictions.Add(1)
			evicted = true
			break
		}
		if !evicted {
			return // everything dirty or pinned: grow past cap
		}
	}
}

// dirtyFrames returns the frames dirtied since the last checkpoint.
// The caller must serialize against all tree mutation.
func (p *Pool) dirtyFrames() []*frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []*frame
	for _, fr := range p.frames {
		if fr.dirty {
			out = append(out, fr)
		}
	}
	return out
}

// rekey moves the relocated frames to their checkpoint slots, clears
// every dirty/fresh flag and adopts the new allocation high-water
// mark. The caller must serialize against all tree access.
func (p *Pool) rekey(remap map[PageID]PageID, npages uint32) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for old, next := range remap {
		fr, ok := p.frames[old]
		if !ok {
			continue
		}
		delete(p.frames, old)
		fr.id = next
		p.frames[next] = fr
	}
	for _, fr := range p.frames {
		fr.dirty = false
		fr.fresh = false
	}
	p.npages = npages
	p.evictLocked()
}

// Stats returns the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	resident := len(p.frames)
	dirty, pinned := 0, 0
	for _, fr := range p.frames {
		if fr.dirty {
			dirty++
		}
		if fr.pins > 0 {
			pinned++
		}
	}
	p.mu.Unlock()
	return PoolStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Resident:  resident,
		Dirty:     dirty,
		Pinned:    pinned,
	}
}

// Store is an open page file: meta, pool and the mounted B-tree.
type Store struct {
	path string
	f    *os.File
	pool *Pool
	meta Meta
	slot int // meta slot (page 0 or 1) the current meta came from
	tree *BTree

	// free holds page slots allocatable right now (referenced by no
	// valid meta slot); pending holds slots vacated by the latest
	// checkpoint, which stay quarantined until the next one commits.
	free    []PageID
	pending []PageID
}

// Open opens an existing page file (use WriteCheckpoint to create
// one). poolPages bounds the buffer pool; <=0 selects the default.
func Open(path string, poolPages int) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	var meta Meta
	slot := -1
	var firstErr error // why the first invalid slot is invalid
	hdr := make([]byte, PageSize)
	for i := 0; i < 2; i++ {
		var m Meta
		_, err := f.ReadAt(hdr, int64(i)*PageSize) // slot 1 may be missing from a short file
		if err == nil {
			m, err = decodeMeta(hdr)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if slot < 0 || m.Gen > meta.Gen {
			meta, slot = m, i
		}
	}
	if slot < 0 {
		f.Close()
		return nil, fmt.Errorf("pager: no valid meta slot: %w", firstErr)
	}
	pool := newPool(f, poolPages, meta.NPages)
	s := &Store{path: path, f: f, pool: pool, meta: meta, slot: slot}
	s.tree = &BTree{pool: pool, root: meta.Root, free: s.freePage}
	pool.alloc = s.popFree
	return s, nil
}

// popFree hands an allocatable recycled slot to the pool, if any.
// Runs on the externally serialized write path.
func (s *Store) popFree() (PageID, bool) {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return id, true
	}
	return 0, false
}

// freePage retires a dead page slot. Slots never persisted (fresh
// since the last checkpoint) recycle immediately; slots the committed
// image may reference quarantine until the next checkpoint commits.
func (s *Store) freePage(id PageID) {
	if s.pool.forget(id) {
		s.free = append(s.free, id)
	} else {
		s.pending = append(s.pending, id)
	}
}

// Meta returns the current committed meta.
func (s *Store) Meta() Meta { return s.meta }

// Tree returns the mounted B-tree. Its root migrates in memory as the
// tree splits; the on-disk root is only rewritten by checkpoints.
func (s *Store) Tree() *BTree { return s.tree }

// PoolStats exposes the buffer-pool counters.
func (s *Store) PoolStats() PoolStats { return s.pool.Stats() }

// Catalog reads the schema-catalog blob from its page chain.
func (s *Store) Catalog() ([]byte, error) {
	return readChain(s.pool, s.meta.CatalogHead)
}

// Close closes the underlying file. Dirty pool frames are discarded —
// persistence is the checkpoint's job, not Close's.
func (s *Store) Close() error { return s.f.Close() }

func readChain(pool *Pool, head PageID) ([]byte, error) {
	var out []byte
	for id := head; id != 0; {
		pg, err := pool.Get(id)
		if err != nil {
			return nil, err
		}
		d := pg.Data()
		if d[0] != pageOverflow {
			pg.Release()
			return nil, fmt.Errorf("pager: page %d: expected chain page, got type %d", id, d[0])
		}
		n := binary.LittleEndian.Uint16(d[2:4])
		next := PageID(binary.LittleEndian.Uint32(d[4:8]))
		out = append(out, d[ovfHdr:ovfHdr+int(n)]...)
		pg.Release()
		id = next
	}
	return out, nil
}

// chainIDs lists the pages of an overflow/catalog chain.
func chainIDs(pool *Pool, head PageID) ([]PageID, error) {
	var ids []PageID
	for id := head; id != 0; {
		pg, err := pool.Get(id)
		if err != nil {
			return ids, err
		}
		ids = append(ids, id)
		id = PageID(binary.LittleEndian.Uint32(pg.Data()[4:8]))
		pg.Release()
	}
	return ids, nil
}

// IncrementalCheckpoint durably publishes the current tree state and
// catalog at commit sequence seq. Cost is proportional to the pages
// dirtied since the last checkpoint: each dirty page is written to a
// slot the committed image does not reference (relocating pages the
// image does hold, writing fresh ones in place), pointers into the
// relocated pages are rewritten in the copies, and the new
// root/catalog/seq commit atomically via the inactive meta slot. The
// caller must serialize against all tree access.
func (s *Store) IncrementalCheckpoint(seq uint64, catalog []byte) error {
	oldCat, err := chainIDs(s.pool, s.meta.CatalogHead)
	if err != nil {
		return fmt.Errorf("pager: checkpoint: read old catalog chain: %w", err)
	}

	dirty := s.pool.dirtyFrames()
	npages := s.pool.npages
	var vacated []PageID
	alloc := func() PageID {
		id, ok := s.popFree()
		if !ok {
			id = PageID(npages)
			npages++
		}
		// Recycled slots may linger in the pool as clean frames (e.g. a
		// previous catalog chain read through it); evict the stale view
		// before the slot's content changes underneath it.
		s.pool.drop(id)
		return id
	}

	// Assign target slots: fresh frames stay put (their slot is already
	// outside the committed image); persisted frames relocate. Dirty
	// path marking in the B-tree guarantees that every page pointing at
	// a dirty page is itself dirty, so rewriting the dirty set alone
	// repairs every pointer into the relocated copies.
	remap := make(map[PageID]PageID)
	targets := make([]PageID, len(dirty))
	for i, fr := range dirty {
		if fr.fresh {
			targets[i] = fr.id
			continue
		}
		targets[i] = alloc()
		remap[fr.id] = targets[i]
		vacated = append(vacated, fr.id)
	}

	// Catalog chain: freshly allocated every checkpoint.
	catHead := PageID(0)
	var catPages []PageID
	var catData [][]byte
	for off := 0; off < len(catalog); {
		n := len(catalog) - off
		if n > ovfCap {
			n = ovfCap
		}
		d := make([]byte, PageSize)
		d[0] = pageOverflow
		binary.LittleEndian.PutUint16(d[2:4], uint16(n))
		copy(d[ovfHdr:], catalog[off:off+n])
		catPages = append(catPages, alloc())
		catData = append(catData, d)
		off += n
	}
	for i := range catPages {
		if i+1 < len(catPages) {
			binary.LittleEndian.PutUint32(catData[i][4:8], uint32(catPages[i+1]))
		}
	}
	if len(catPages) > 0 {
		catHead = catPages[0]
	}

	// Write the relocated/in-place dirty pages with pointers remapped,
	// then the catalog chain, then fsync the data before the meta flip.
	// The remap is applied to the pooled frames themselves, not a copy:
	// the resident frames must follow the relocated ids after the commit,
	// and by the dirty-path invariant every pointer into a relocated page
	// lives in a dirty frame, so rewriting the dirty set covers them all.
	// (On a write error the store is left for the engine's sticky-fail
	// path; the committed on-disk image is untouched either way.)
	for i, fr := range dirty {
		remapPage(fr.data, remap)
		if _, err := s.f.WriteAt(fr.data, int64(targets[i])*PageSize); err != nil {
			return fmt.Errorf("pager: checkpoint write page %d: %w", targets[i], err)
		}
	}
	for i, d := range catData {
		if _, err := s.f.WriteAt(d, int64(catPages[i])*PageSize); err != nil {
			return fmt.Errorf("pager: checkpoint write catalog page %d: %w", catPages[i], err)
		}
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("pager: checkpoint data fsync: %w", err)
	}

	root := s.tree.root
	if next, ok := remap[root]; ok {
		root = next
	}
	meta := Meta{
		Gen:           s.meta.Gen + 1,
		CheckpointSeq: seq,
		Root:          root,
		NPages:        npages,
		CatalogHead:   catHead,
	}
	slot := 1 - s.slot
	if _, err := s.f.WriteAt(encodeMeta(meta), int64(slot)*PageSize); err != nil {
		return fmt.Errorf("pager: checkpoint meta write: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("pager: checkpoint meta fsync: %w", err)
	}

	// Committed: adopt the new meta, move relocated frames to their
	// slots, and promote the previous checkpoint's quarantine to the
	// allocatable free list (the meta flip made it unreachable).
	s.meta, s.slot = meta, slot
	s.tree.root = root
	s.pool.rekey(remap, npages)
	s.free = append(s.free, s.pending...)
	s.pending = append(vacated, oldCat...)
	return nil
}

// WriteCheckpoint writes a page file holding what scan emits, catalog
// and seq at path, atomically replacing any previous file. scan must
// emit keys in strictly ascending order (iterate a live tree, or
// nothing for a fresh file). The file is built by the writer every
// later checkpoint uses: a three-page empty image (meta slot 0 naming
// an empty root leaf, slot 1 zeroed) is written to path.tmp, opened,
// filled with BTree.Put and published with IncrementalCheckpoint, then
// renamed over path. The result has two valid meta slots: the newer
// one, and the older, catalog-less empty image.
func WriteCheckpoint(path string, seq uint64, catalog []byte, scan func(emit func(Key, []byte) error) error) error {
	tmp := path + ".tmp"
	defer os.Remove(tmp) // no-op after the rename succeeds
	img := make([]byte, 3*PageSize)
	copy(img, encodeMeta(Meta{Gen: 1, Root: 2, NPages: 3}))
	packLeaf(img[2*PageSize:], nil)
	if err := os.WriteFile(tmp, img, 0o644); err != nil {
		return err
	}
	s, err := Open(tmp, 0)
	if err != nil {
		return err
	}
	var prev Key
	have := false
	err = scan(func(k Key, v []byte) error {
		if have && !prev.Less(k) {
			return fmt.Errorf("pager: checkpoint scan out of order at %x", k[:])
		}
		prev, have = k, true
		return s.tree.Put(k, v)
	})
	if err == nil {
		err = s.IncrementalCheckpoint(seq, catalog)
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return fsyncDir(filepath.Dir(path))
}

func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
