package cache

import (
	"container/list"
	"fmt"
	"testing"
	"time"
)

// contentionStore builds a store with an explicit shard count so the
// sharded and single-shard cores can be compared at equal capacity.
func storeWithShards(capacity, shards int) *store {
	s := &store{
		shards: make([]*shard, shards),
		mask:   uint32(shards - 1),
		now:    time.Now,
	}
	for i := range s.shards {
		c := capacity / shards
		if i < capacity%shards {
			c++
		}
		s.shards[i] = &shard{
			cap:     c,
			entries: make(map[string]*entry),
			lru:     list.New(),
			byDep:   make(map[string]depSet),
		}
	}
	return s
}

func benchStoreParallel(b *testing.B, s *store) {
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("unit|oid=%d", i)
		s.put(keys[i], i, []string{"entity:volume"}, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := keys[i&1023]
			if i%16 == 0 {
				s.put(key, i, []string{"entity:volume"}, 0)
			} else {
				s.get(key)
			}
			i++
		}
	})
}

// BenchmarkCacheShardedContention measures the sharded core under
// parallel mixed get/put traffic; compare with the SingleShard variant at
// the same capacity to see the lock-contention win.
func BenchmarkCacheShardedContention(b *testing.B) {
	benchStoreParallel(b, newStore(16384))
}

// BenchmarkCacheSingleShardContention is the seed-architecture
// comparator: the same capacity forced onto one mutex.
func BenchmarkCacheSingleShardContention(b *testing.B) {
	benchStoreParallel(b, storeWithShards(16384, 1))
}
