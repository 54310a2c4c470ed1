package rdb

// lruCache is a least-recently-used cache: the statement and plan
// caches, and the durable engine's decoded-row cache.
// Descriptor-driven workloads present a closed set of query shapes, so
// in steady state everything hits; the bound exists so ad-hoc or fuzzed
// SQL cannot grow memory without limit. Entries link themselves into a
// recency ring. A new key takes an entry remove let go, else one cut
// from a chunk of up to lruChunk entries, so the chunks follow the live
// high-water mark and most inserts allocate no entry; once the cache is
// full the least recently used entry is recycled. A capacity of zero or
// less never fills. Callers provide their own locking.
type lruCache[K comparable, V any] struct {
	cap     int
	head    lruEntry[K, V] // ring sentinel: head.next is the most recently used
	m       map[K]*lruEntry[K, V]
	free    *lruEntry[K, V] // entries remove let go, chained through next
	entries slab[lruEntry[K, V]]
}

// lruChunk is the most entries one chunk holds.
const lruChunk = 64

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

func newLRU[K comparable, V any](capacity int) *lruCache[K, V] {
	c := &lruCache[K, V]{cap: capacity, m: make(map[K]*lruEntry[K, V])}
	c.head.prev, c.head.next = &c.head, &c.head
	return c
}

func (e *lruEntry[K, V]) unlink() { e.prev.next, e.next.prev = e.next, e.prev }

func (c *lruCache[K, V]) pushFront(e *lruEntry[K, V]) {
	e.prev, e.next = &c.head, c.head.next
	e.prev.next, e.next.prev = e, e
}

func (c *lruCache[K, V]) get(key K) (V, bool) {
	e, ok := c.m[key]
	if !ok {
		var none V
		return none, false
	}
	e.unlink()
	c.pushFront(e)
	return e.val, true
}

// put stores val under key and reports whether the least recently used
// entry was dropped to make room.
func (c *lruCache[K, V]) put(key K, val V) (dropped bool) {
	e, ok := c.m[key]
	switch {
	case ok:
		e.unlink()
	case c.cap > 0 && len(c.m) >= c.cap:
		e = c.head.prev
		e.unlink()
		delete(c.m, e.key)
		dropped = true
	case c.free != nil:
		e, c.free = c.free, c.free.next
	default:
		e = &c.entries.cutUpTo(1, lruChunk)[0]
	}
	e.key, e.val = key, val
	c.m[key] = e
	c.pushFront(e)
	return dropped
}

func (c *lruCache[K, V]) remove(key K) {
	if e, ok := c.m[key]; ok {
		e.unlink()
		delete(c.m, key)
		*e = lruEntry[K, V]{next: c.free} // drop what the value holds
		c.free = e
	}
}

func (c *lruCache[K, V]) len() int { return len(c.m) }
