package cache

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestBeanCacheGetPut(t *testing.T) {
	c := NewBeanCache(10)
	if _, ok := c.Get("k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("k", "bean", []string{"entity:volume"}, 0)
	v, ok := c.Get("k")
	if !ok || v != "bean" {
		t.Fatalf("got %v %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestKeyCanonical(t *testing.T) {
	a := Key("u1", map[string]string{"b": "2", "a": "1"})
	b := Key("u1", map[string]string{"a": "1", "b": "2"})
	if a != b {
		t.Fatalf("%q != %q", a, b)
	}
	if Key("u1", nil) != "u1" {
		t.Fatal("empty inputs key")
	}
	if Key("u1", map[string]string{"a": "1"}) == Key("u1", map[string]string{"a": "2"}) {
		t.Fatal("different inputs collide")
	}
}

func TestInvalidateByDependency(t *testing.T) {
	c := NewBeanCache(100)
	c.Put("vol1", 1, []string{"entity:volume"}, 0)
	c.Put("vol2", 2, []string{"entity:volume", "rel:volumetoissue"}, 0)
	c.Put("paper", 3, []string{"entity:paper"}, 0)

	n := c.Invalidate("entity:volume")
	if n != 2 {
		t.Fatalf("invalidated %d", n)
	}
	if _, ok := c.Get("vol1"); ok {
		t.Fatal("vol1 survived invalidation")
	}
	if _, ok := c.Get("vol2"); ok {
		t.Fatal("vol2 survived invalidation")
	}
	if _, ok := c.Get("paper"); !ok {
		t.Fatal("paper over-invalidated")
	}
	// Idempotent.
	if n := c.Invalidate("entity:volume"); n != 0 {
		t.Fatalf("second invalidation removed %d", n)
	}

	// A fill overlapping an invalidation of its tag: a Join after the
	// invalidation leads a new fill, PutIfFresh refuses the overlapped
	// leader's value, and Finish still wakes its joiner with it.
	f, lead := c.Join("vol1")
	if !lead {
		t.Fatal("first Join did not lead")
	}
	j, lead := c.Join("vol1")
	if lead || j != f {
		t.Fatal("second Join did not join the fill in progress")
	}
	c.Invalidate("entity:volume")
	g, lead := c.Join("vol1")
	if !lead || g == f {
		t.Fatal("Join after Invalidate joined the pre-write fill")
	}
	if c.PutIfFresh("vol1", "pre-write", []string{"entity:volume"}, 0, f.Epoch()) {
		t.Fatal("pre-write fill stored")
	}
	c.Finish(f, "pre-write", nil)
	if v, err := j.Wait(context.Background()); v != "pre-write" || err != nil {
		t.Fatalf("joiner woke with %v, %v", v, err)
	}
	// A joiner waits no longer than its own context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait on a cancelled context returned %v", err)
	}
}

func TestInvalidateMultipleTags(t *testing.T) {
	c := NewBeanCache(100)
	c.Put("a", 1, []string{"entity:a"}, 0)
	c.Put("b", 2, []string{"entity:b"}, 0)
	if n := c.Invalidate("entity:a", "entity:b", "entity:ghost"); n != 2 {
		t.Fatalf("invalidated %d", n)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewBeanCache(3)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), i, nil, 0)
	}
	c.Get("k0") // make k0 recent; k1 is now LRU
	c.Put("k3", 3, nil, 0)
	if _, ok := c.Get("k1"); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Get("k0"); !ok {
		t.Fatal("recent entry evicted")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestTTLExpiry(t *testing.T) {
	c := NewBeanCache(10)
	now := time.Unix(1000, 0)
	c.s.now = func() time.Time { return now }
	c.Put("k", 1, nil, 5*time.Second)
	if _, ok := c.Get("k"); !ok {
		t.Fatal("fresh entry missed")
	}
	now = now.Add(6 * time.Second)
	if _, ok := c.Get("k"); ok {
		t.Fatal("stale entry served")
	}
	if c.Stats().Expirations != 1 {
		t.Fatalf("expirations = %d", c.Stats().Expirations)
	}
}

func TestPutReplacesAndRetags(t *testing.T) {
	c := NewBeanCache(10)
	c.Put("k", 1, []string{"entity:a"}, 0)
	c.Put("k", 2, []string{"entity:b"}, 0)
	if v, _ := c.Get("k"); v != 2 {
		t.Fatalf("v = %v", v)
	}
	// Old tag must no longer invalidate the entry.
	if n := c.Invalidate("entity:a"); n != 0 {
		t.Fatalf("stale dep invalidated %d", n)
	}
	if n := c.Invalidate("entity:b"); n != 1 {
		t.Fatalf("new dep invalidated %d", n)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := NewBeanCache(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%32)
				c.Put(key, i, []string{fmt.Sprintf("d%d", i%4)}, 0)
				c.Get(key)
				if i%10 == 0 {
					c.Invalidate(fmt.Sprintf("d%d", i%4))
				}
			}
		}(g)
	}
	wg.Wait()
}

// Property: after invalidating tag T, no entry that was stored with tag T
// remains retrievable, and entries without T are untouched.
func TestInvalidationExactnessProperty(t *testing.T) {
	f := func(tagged, untagged []uint8) bool {
		c := NewBeanCache(10000)
		for i, v := range tagged {
			c.Put(fmt.Sprintf("t%d", i), v, []string{"T", fmt.Sprintf("x%d", v%3)}, 0)
		}
		for i, v := range untagged {
			c.Put(fmt.Sprintf("u%d", i), v, []string{fmt.Sprintf("x%d", v%3)}, 0)
		}
		c.Invalidate("T")
		for i := range tagged {
			if _, ok := c.Get(fmt.Sprintf("t%d", i)); ok {
				return false
			}
		}
		for i := range untagged {
			if _, ok := c.Get(fmt.Sprintf("u%d", i)); !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Len never exceeds capacity.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(keys []uint16) bool {
		c := NewBeanCache(16)
		for _, k := range keys {
			c.Put(fmt.Sprintf("k%d", k), k, nil, 0)
			if c.Len() > 16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
