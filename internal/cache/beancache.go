package cache

import (
	"slices"
	"sync"
	"time"
)

// BeanCache is the business-tier cache of Section 6: it stores "the data
// beans produced by the action invocations, which typically include the
// result of data access queries, and makes them reusable by multiple
// requests". Invalidation is model-driven: entries are tagged with the
// dependency tags of the entities/relationships their query reads, and
// operations invalidate by the tags they write — "sparing the developer
// the need of managing a business-tier cache in his application code".
//
// Because computation and invalidation race under concurrent traffic, the
// cache also tracks a per-tag invalidation version: a caller snapshots
// Version(deps) before computing a bean and stores it with PutIfFresh,
// which refuses the value if any of its read dependencies was invalidated
// in the meantime — a stale bean computed against a pre-write database
// state can never overwrite an invalidation.
type BeanCache struct {
	s *store

	genMu sync.RWMutex
	gens  map[string]uint64 // dep tag -> version at last invalidation
	clock uint64
}

// NewBeanCache returns a bean cache bounded to capacity entries
// (<=0 selects the default, 4096). TTL-expired beans are retained
// (demoted in the LRU) so GetStale can serve them in degraded mode;
// invalidated beans are removed outright and never resurface.
func NewBeanCache(capacity int) *BeanCache {
	return &BeanCache{s: newStore(capacity), gens: make(map[string]uint64)}
}

// keyBuilder assembles canonical cache keys without intermediate maps or
// throwaway slices; instances are pooled.
type keyBuilder struct {
	names []string
	buf   []byte
}

var keyPool = sync.Pool{New: func() interface{} { return new(keyBuilder) }}

// Key builds the canonical cache key of a unit computation: the unit ID
// plus its input parameters in sorted order.
func Key(unitID string, inputs map[string]string) string {
	if len(inputs) == 0 {
		return unitID
	}
	kb := keyPool.Get().(*keyBuilder)
	kb.names = kb.names[:0]
	for n := range inputs {
		kb.names = append(kb.names, n)
	}
	slices.Sort(kb.names)
	kb.buf = append(kb.buf[:0], unitID...)
	for _, n := range kb.names {
		kb.buf = append(kb.buf, '|')
		kb.buf = append(kb.buf, n...)
		kb.buf = append(kb.buf, '=')
		kb.buf = append(kb.buf, inputs[n]...)
	}
	key := string(kb.buf)
	keyPool.Put(kb)
	return key
}

// Get returns the cached bean for key, if present and fresh.
func (c *BeanCache) Get(key string) (interface{}, bool) { return c.s.get(key) }

// GetStale returns the bean for key even if its TTL has lapsed, as long
// as it was stored no more than maxStale ago, together with its age. It
// is the degraded-mode read path used when the business tier is
// unreachable; hits are counted separately as Stats.DegradedHits.
// Invalidate removes beans outright, so GetStale can never return data
// an operation has written over.
func (c *BeanCache) GetStale(key string, maxStale time.Duration) (interface{}, time.Duration, bool) {
	return c.s.getStale(key, maxStale)
}

// Put stores a bean under key, tagged with its dependency tags and an
// optional TTL (0 disables time-based expiry).
func (c *BeanCache) Put(key string, bean interface{}, deps []string, ttl time.Duration) {
	c.s.put(key, bean, deps, ttl)
}

// Version returns the invalidation version of a dependency set: the
// highest version at which any of the tags was last invalidated. Snapshot
// it before computing a value destined for PutIfFresh.
func (c *BeanCache) Version(deps []string) uint64 {
	c.genMu.RLock()
	defer c.genMu.RUnlock()
	var v uint64
	for _, d := range deps {
		if g := c.gens[d]; g > v {
			v = g
		}
	}
	return v
}

// PutIfFresh stores a bean only if none of its dependency tags has been
// invalidated since the caller observed Version(deps) == v; it reports
// whether the value was stored. The check and the store are atomic with
// respect to Invalidate, closing the compute/invalidate race.
func (c *BeanCache) PutIfFresh(key string, bean interface{}, deps []string, ttl time.Duration, v uint64) bool {
	c.genMu.RLock()
	defer c.genMu.RUnlock()
	for _, d := range deps {
		if c.gens[d] > v {
			return false
		}
	}
	c.s.put(key, bean, deps, ttl)
	return true
}

// Invalidate removes every bean depending on any of the given tags and
// reports how many entries were dropped. It also advances the tags'
// invalidation versions, so in-flight PutIfFresh calls with older
// snapshots are refused.
func (c *BeanCache) Invalidate(deps ...string) int {
	c.genMu.Lock()
	defer c.genMu.Unlock()
	c.clock++
	for _, d := range deps {
		c.gens[d] = c.clock
	}
	return c.s.invalidate(deps...)
}

// Flush empties the cache.
func (c *BeanCache) Flush() { c.s.flush() }

// Len returns the number of cached beans.
func (c *BeanCache) Len() int { return c.s.len() }

// Stats returns a snapshot of the cache counters.
func (c *BeanCache) Stats() Stats { return c.s.statsCopy() }
