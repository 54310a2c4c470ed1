package cache

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestCapacityOneNeverOverfills pins the put-order fix: eviction happens
// before insertion, so a capacity-1 cache holds one entry at every
// instant — never two, not even transiently — and eviction counts are
// exact.
func TestCapacityOneNeverOverfills(t *testing.T) {
	c := NewBeanCache(1)
	c.Put("a", 1, nil, 0)
	if n := c.Len(); n != 1 {
		t.Fatalf("len after first put = %d", n)
	}
	c.Put("b", 2, nil, 0)
	if n := c.Len(); n != 1 {
		t.Fatalf("len after second put = %d, want 1", n)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted entry still present")
	}
	if v, ok := c.Get("b"); !ok || v != 2 {
		t.Fatal("newest entry lost")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want exactly 1", st.Evictions)
	}
	if st.Puts != 2 {
		t.Fatalf("puts = %d", st.Puts)
	}
}

// TestShardCountPolicy pins the sharding policy: small caches stay
// single-shard (strict global LRU), large ones shard up to the cap with
// at least minEntriesPerShard entries each.
func TestShardCountPolicy(t *testing.T) {
	cases := []struct{ capacity, want int }{
		{1, 1},
		{3, 1},
		{256, 1},
		{511, 1},
		{512, 2},
		{1024, 4},
		{4096, 16},
		{16384, 64},
		{1 << 20, 64}, // capped at maxShards
	}
	for _, tc := range cases {
		if got := shardCount(tc.capacity); got != tc.want {
			t.Errorf("shardCount(%d) = %d, want %d", tc.capacity, got, tc.want)
		}
	}
	if got := len(NewBeanCache(4096).s.shards); got != 16 {
		t.Errorf("BeanCache(4096) shards = %d", got)
	}
	if got := len(NewBeanCache(16).s.shards); got != 1 {
		t.Errorf("BeanCache(16) shards = %d", got)
	}
}

// TestShardedCapacitySumsExact checks per-shard capacities sum to the
// requested capacity even when it does not divide evenly.
func TestShardedCapacitySumsExact(t *testing.T) {
	for _, capacity := range []int{512, 513, 1000, 4096, 4100} {
		s := newStore(capacity)
		sum := 0
		for _, sh := range s.shards {
			sum += sh.cap
		}
		if sum != capacity {
			t.Fatalf("capacity %d distributed as %d", capacity, sum)
		}
	}
}

// TestShardedInvalidateCrossesShards fills a sharded cache with entries
// sharing one dependency tag and checks Invalidate drops them all, with
// exact aggregate counts.
func TestShardedInvalidateCrossesShards(t *testing.T) {
	c := NewBeanCache(2048)
	if len(c.s.shards) < 2 {
		t.Fatal("test needs a sharded cache")
	}
	const n = 500
	for i := 0; i < n; i++ {
		c.Put(fmt.Sprintf("k%04d", i), i, []string{"entity:volume"}, 0)
	}
	if c.Len() != n {
		t.Fatalf("len = %d", c.Len())
	}
	if dropped := c.Invalidate("entity:volume"); dropped != n {
		t.Fatalf("invalidated %d, want %d", dropped, n)
	}
	if c.Len() != 0 {
		t.Fatalf("len after invalidate = %d", c.Len())
	}
	if st := c.Stats(); st.Invalidations != n || st.Puts != n {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPutIfFreshRefusesStale pins the version scheme closing the
// compute/invalidate race: a put computed before an invalidation of its
// read deps must be refused.
func TestPutIfFreshRefusesStale(t *testing.T) {
	c := NewBeanCache(64)
	deps := []string{"entity:volume"}

	v := c.clock
	// An invalidation lands between the snapshot and PutIfFresh (the write
	// committed while the bean was being computed).
	c.Invalidate(deps...)
	if c.PutIfFresh("k", "stale", deps, 0, v) {
		t.Fatal("stale put accepted")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("stale bean cached")
	}

	// Without an intervening invalidation the put lands.
	v = c.clock
	if !c.PutIfFresh("k", "fresh", deps, 0, v) {
		t.Fatal("fresh put refused")
	}
	if got, ok := c.Get("k"); !ok || got != "fresh" {
		t.Fatal("fresh bean lost")
	}

	// Invalidating an unrelated tag does not refuse the put.
	v = c.clock
	c.Invalidate("entity:paper")
	if !c.PutIfFresh("k2", "ok", deps, 0, v) {
		t.Fatal("put refused by unrelated invalidation")
	}
}

// TestShardedConcurrentMixedOps hammers a sharded cache from many
// goroutines under -race.
func TestShardedConcurrentMixedOps(t *testing.T) {
	c := NewBeanCache(4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dep := fmt.Sprintf("entity:e%d", g%4)
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%64)
				switch i % 6 {
				case 0:
					c.Put(key, i, []string{dep}, 0)
				case 1, 2, 3:
					c.Get(key)
				case 4:
					c.Invalidate(dep)
				case 5:
					// Fills of keys every goroutine shares.
					shared := fmt.Sprintf("k%d", i%8)
					if f, lead := c.Join(shared); lead {
						c.PutIfFresh(shared, i, []string{dep}, 0, f.Epoch())
						c.Finish(f, i, nil)
					} else if _, err := f.Wait(context.Background()); err != nil {
						t.Error(err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Puts == 0 || st.Hits+st.Misses == 0 {
		t.Fatalf("stats = %+v", st)
	}
}
