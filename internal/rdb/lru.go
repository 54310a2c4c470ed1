package rdb

// lruCache is a small bounded least-recently-used cache: the statement
// and plan caches, and the durable engine's decoded-row cache.
// Descriptor-driven workloads present a closed set of query shapes, so
// in steady state everything hits; the bound exists so ad-hoc or fuzzed
// SQL cannot grow memory without limit. Entries link themselves into a
// recency ring, so an insert is one allocation — none once the cache is
// full, when the least recently used entry is recycled. Callers provide
// their own locking.
type lruCache[K comparable, V any] struct {
	cap  int
	head lruEntry[K, V] // ring sentinel: head.next is the most recently used
	m    map[K]*lruEntry[K, V]
}

type lruEntry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *lruEntry[K, V]
}

func newLRU[K comparable, V any](capacity int) *lruCache[K, V] {
	c := &lruCache[K, V]{cap: max(capacity, 1), m: make(map[K]*lruEntry[K, V])}
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

func (c *lruCache[K, V]) put(key K, val V) {
	e, ok := c.m[key]
	switch {
	case ok:
		e.unlink()
	case len(c.m) >= c.cap:
		e = c.head.prev
		e.unlink()
		delete(c.m, e.key)
	default:
		e = new(lruEntry[K, V])
	}
	e.key, e.val = key, val
	c.m[key] = e
	c.pushFront(e)
}

func (c *lruCache[K, V]) remove(key K) {
	if e, ok := c.m[key]; ok {
		e.unlink()
		delete(c.m, key)
	}
}

func (c *lruCache[K, V]) len() int { return len(c.m) }
