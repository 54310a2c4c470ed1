package cache

import (
	"context"
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
// Both cache levels (the beans here, and the edge's containers and
// fragments in its own BeanCache) fill through one protocol. Misses of
// a key coalesce on one Fill: Join hands the caller the fill in progress,
// or starts one it leads. The leader stores its value with PutIfFresh at
// the fill's Epoch, which refuses the value if any of its dependency
// tags was invalidated since the fill began, so a value computed against
// a pre-write state can never overwrite an invalidation; then Finish
// wakes the joiners. A fill is joinable only until the next Invalidate:
// a request arriving after a write starts a fresh fill instead of
// adopting a pre-write result.
type BeanCache struct {
	s *store

	genMu sync.RWMutex
	gens  map[string]uint64 // dep tag -> clock at its last invalidation
	clock uint64            // advanced by every Invalidate

	fillMu sync.Mutex
	fills  map[string]*Fill // made by the first Join
}

// Fill is one in-progress computation of a key, shared by every caller
// that joined it.
type Fill struct {
	key   string
	epoch uint64
	done  chan struct{}
	val   interface{}
	err   error
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

// Join returns the fill of key in progress if no Invalidate has run since
// it began; otherwise it starts a new fill, and lead reports that the
// caller must compute the value, store it with PutIfFresh and Finish the
// fill.
func (c *BeanCache) Join(key string) (f *Fill, lead bool) {
	c.genMu.RLock()
	now := c.clock
	c.genMu.RUnlock()
	c.fillMu.Lock()
	defer c.fillMu.Unlock()
	if f, ok := c.fills[key]; ok && f.epoch == now {
		return f, false
	}
	if c.fills == nil {
		c.fills = make(map[string]*Fill)
	}
	f = &Fill{key: key, epoch: now, done: make(chan struct{})}
	c.fills[key] = f
	return f, true
}

// Finish publishes the leader's result to the fill's joiners and retires
// the fill. It wakes them whether or not PutIfFresh stored the value:
// their requests overlapped the fill, so its result is theirs to serve.
func (c *BeanCache) Finish(f *Fill, val interface{}, err error) {
	c.fillMu.Lock()
	if c.fills[f.key] == f {
		delete(c.fills, f.key)
	}
	c.fillMu.Unlock()
	f.val, f.err = val, err
	close(f.done)
}

// Epoch is the invalidation clock when the fill began; its leader passes
// it to PutIfFresh.
func (f *Fill) Epoch() uint64 { return f.epoch }

// Done is closed once the fill's leader finishes; Result is then its
// result. A waiter that holds a request deadline waits on Done through
// its own helper (mvc.Await); Wait serves any other context.
func (f *Fill) Done() <-chan struct{} { return f.done }

// Result returns the leader's result once Done is closed.
func (f *Fill) Result() (interface{}, error) { return f.val, f.err }

// Wait blocks until the fill's leader finishes or ctx is done, and
// returns the leader's result or the context's error.
func (f *Fill) Wait(ctx context.Context) (interface{}, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// PutIfFresh stores a bean only if none of its dependency tags has been
// invalidated since the clock read epoch (a Fill's Epoch); it reports
// whether the value was stored. The check and the store are atomic with
// respect to Invalidate, closing the compute/invalidate race.
func (c *BeanCache) PutIfFresh(key string, bean interface{}, deps []string, ttl time.Duration, epoch uint64) bool {
	c.genMu.RLock()
	defer c.genMu.RUnlock()
	for _, d := range deps {
		if c.gens[d] > epoch {
			return false
		}
	}
	c.s.put(key, bean, deps, ttl)
	return true
}

// Invalidate removes every bean depending on any of the given tags and
// reports how many entries were dropped. It also advances the clock and
// stamps the tags with it, so fills that began earlier can no longer be
// joined, and those reading the tags can no longer store their values.
func (c *BeanCache) Invalidate(deps ...string) int {
	c.genMu.Lock()
	defer c.genMu.Unlock()
	c.clock++
	for _, d := range deps {
		c.gens[d] = c.clock
	}
	return c.s.invalidate(deps...)
}

// Len returns the number of cached beans.
func (c *BeanCache) Len() int { return c.s.len() }

// Stats returns a snapshot of the cache counters.
func (c *BeanCache) Stats() Stats { return c.s.statsCopy() }
