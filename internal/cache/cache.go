// Package cache implements the business-tier level of Section 6's two
// cache levels: a bean cache holding the unit beans produced by data
// retrieval queries, keyed by unit + input parameters, invalidated
// through the model-derived dependency index (the entities and
// relationships each unit reads and each operation writes). The other
// level, template fragments in an ESI-compliant web cache, is the edge
// tier (internal/edge), which stores its fragments in the same structure.
// The bean cache stays at entity grain: a bean is tagged with its
// descriptor's Reads (entity:<e>, rel:<r>) and an operation purges by its
// Writes. The edge tags fragments at object grain too (entity:<e>+ and
// entity:<e>#<oid>, see mvc.ReadTags); the core matches tags and does not
// care which grain they name.
//
// Both levels share one LRU + TTL + dependency-index core and one fill
// protocol (Join, PutIfFresh at the fill's epoch, Finish): concurrent
// misses of a key coalesce on one computation, and a value whose tags
// were invalidated while it was computed is refused. Under heavy
// traffic the core is sharded: keys are FNV-hashed onto a power-of-two
// number of independent shards, each with its own lock, LRU list, TTL
// bookkeeping and dependency index, so concurrent requests do not
// serialize on a single mutex. Aggregate operations (Stats, Len,
// Invalidate) combine all shards exactly.
package cache

import (
	"container/list"
	"sync"
	"time"
)

// Stats counts cache activity.
type Stats struct {
	Hits          int64
	Misses        int64
	Puts          int64
	Evictions     int64
	Invalidations int64 // entries removed by dependency invalidation
	Expirations   int64
	// DegradedHits counts expired entries served through GetStale while
	// the origin was unavailable (Section 6's cache acting as the last
	// line of defence when the business tier is down).
	DegradedHits int64
}

type entry struct {
	key     string
	val     interface{}
	deps    []string
	stored  time.Time // when the value was put (staleness bound)
	expires time.Time // zero = no TTL
	expired bool      // TTL lapse already counted in stats
	elem    *list.Element
}

// maxShards bounds the shard count; more shards than this stop paying
// off (and small caches stay single-shard so the LRU order is global).
const maxShards = 64

// minEntriesPerShard is the capacity below which sharding is not worth
// the loss of strict global LRU ordering.
const minEntriesPerShard = 256

// store is the sharded LRU/TTL/dependency-index machinery behind the
// bean cache. TTL-expired entries are retained (demoted to the LRU tail)
// instead of dropped on lookup, so getStale can serve them in degraded
// mode. Invalidated entries are always removed outright — degraded mode
// never resurrects written-over data.
type store struct {
	shards []*shard
	mask   uint32
	// now is the clock hook shared by every shard (tests override it).
	now func() time.Time
}

// shard is one independent slice of the keyspace.
type shard struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*entry
	lru     *list.List // front = most recent; values are *entry
	byDep   map[string]depSet
	stats   Stats
}

// depSet is the set of keys tagged with one dependency. A set of one key,
// which is what most object tags (entity:<e>#<oid>) have, holds its key
// inline and allocates no map.
type depSet struct {
	one  string
	many map[string]struct{}
}

// shardCount picks the power-of-two shard count for a capacity: 1 for
// small caches (strict global LRU), scaling up to maxShards so that each
// shard keeps at least minEntriesPerShard entries.
func shardCount(capacity int) int {
	n := 1
	for n < maxShards && capacity/(n*2) >= minEntriesPerShard {
		n *= 2
	}
	return n
}

func newStore(capacity int) *store {
	if capacity <= 0 {
		capacity = 4096
	}
	n := shardCount(capacity)
	s := &store{
		shards: make([]*shard, n),
		mask:   uint32(n - 1),
		now:    time.Now,
	}
	for i := range s.shards {
		// Distribute the capacity exactly: the first capacity%n shards
		// take one extra entry, so per-shard caps sum to capacity.
		cap := capacity / n
		if i < capacity%n {
			cap++
		}
		s.shards[i] = &shard{
			cap:     cap,
			entries: make(map[string]*entry),
			lru:     list.New(),
			byDep:   make(map[string]depSet),
		}
	}
	return s
}

// shardFor hashes key onto its shard (FNV-1a).
func (s *store) shardFor(key string) *shard {
	if s.mask == 0 {
		return s.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return s.shards[h&s.mask]
}

func (s *store) get(key string) (interface{}, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		sh.stats.Misses++
		return nil, false
	}
	if !e.expires.IsZero() && s.now().After(e.expires) {
		// Keep the zombie for degraded-mode serving, but demote it so
		// capacity pressure reclaims it first.
		if !e.expired {
			e.expired = true
			sh.stats.Expirations++
		}
		sh.lru.MoveToBack(e.elem)
		sh.stats.Misses++
		return nil, false
	}
	sh.lru.MoveToFront(e.elem)
	sh.stats.Hits++
	return e.val, true
}

// getStale returns the entry for key regardless of TTL expiry, as long
// as it was stored no more than maxStale ago. It is the degraded-mode
// read path: Invalidate removes entries outright, so anything getStale
// finds was never written over — only aged past its freshness TTL.
func (s *store) getStale(key string, maxStale time.Duration) (interface{}, time.Duration, bool) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.entries[key]
	if !ok {
		return nil, 0, false
	}
	age := s.now().Sub(e.stored)
	if age > maxStale {
		return nil, 0, false
	}
	sh.stats.DegradedHits++
	return e.val, age, true
}

func (s *store) put(key string, val interface{}, deps []string, ttl time.Duration) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if old, ok := sh.entries[key]; ok {
		sh.removeLocked(old)
	}
	// Make room before inserting, so the shard never holds more than its
	// capacity — not even transiently (a capacity-1 cache holds 1 entry,
	// never 2, and eviction counts stay exact under sharding).
	for len(sh.entries) >= sh.cap {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		sh.removeLocked(back.Value.(*entry))
		sh.stats.Evictions++
	}
	e := &entry{key: key, val: val, deps: deps, stored: s.now()}
	if ttl > 0 {
		e.expires = s.now().Add(ttl)
	}
	e.elem = sh.lru.PushFront(e)
	sh.entries[key] = e
	for _, d := range deps {
		set, ok := sh.byDep[d]
		switch {
		case set.many != nil:
			set.many[key] = struct{}{}
		case !ok:
			sh.byDep[d] = depSet{one: key}
		case set.one != key:
			sh.byDep[d] = depSet{many: map[string]struct{}{set.one: {}, key: {}}}
		}
	}
	sh.stats.Puts++
}

// invalidate drops every entry depending on any of the given tags and
// returns how many entries were removed, across all shards.
func (s *store) invalidate(deps ...string) int {
	removed := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n := 0
		drop := func(key string) {
			if e, ok := sh.entries[key]; ok {
				sh.removeLocked(e)
				n++
			}
		}
		for _, d := range deps {
			set, ok := sh.byDep[d]
			if ok && set.many == nil {
				drop(set.one)
			}
			for key := range set.many {
				drop(key)
			}
		}
		sh.stats.Invalidations += int64(n)
		removed += n
		sh.mu.Unlock()
	}
	return removed
}

func (sh *shard) removeLocked(e *entry) {
	delete(sh.entries, e.key)
	sh.lru.Remove(e.elem)
	for _, d := range e.deps {
		set := sh.byDep[d]
		if set.many == nil {
			if set.one == e.key {
				delete(sh.byDep, d)
			}
			continue
		}
		delete(set.many, e.key)
		if len(set.many) == 0 {
			delete(sh.byDep, d)
		}
	}
}

func (s *store) len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

func (s *store) statsCopy() Stats {
	var out Stats
	for _, sh := range s.shards {
		sh.mu.Lock()
		out.Hits += sh.stats.Hits
		out.Misses += sh.stats.Misses
		out.Puts += sh.stats.Puts
		out.Evictions += sh.stats.Evictions
		out.Invalidations += sh.stats.Invalidations
		out.Expirations += sh.stats.Expirations
		out.DegradedHits += sh.stats.DegradedHits
		sh.mu.Unlock()
	}
	return out
}
