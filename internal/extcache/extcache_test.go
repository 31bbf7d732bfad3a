package extcache

import (
	"fmt"
	"sync"
	"testing"

	"saccs/internal/obs"
)

func TestGetPutRoundTrip(t *testing.T) {
	c := New(64)
	if _, ok := c.Get(1, "k"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(1, "k", []string{"tasty food", "friendly staff"})
	got, ok := c.Get(1, "k")
	if !ok {
		t.Fatal("miss after Put")
	}
	if len(got) != 2 || got[0] != "tasty food" || got[1] != "friendly staff" {
		t.Fatalf("got %v", got)
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d, %d), want (1, 1)", hits, misses)
	}
}

func TestGenerationMismatchMisses(t *testing.T) {
	c := New(64)
	c.Put(1, "k", []string{"a"})
	if _, ok := c.Get(2, "k"); ok {
		t.Fatal("entry from generation 1 served to generation 2")
	}
	// A fresh Put under the new generation replaces the stale entry.
	c.Put(2, "k", []string{"b"})
	got, ok := c.Get(2, "k")
	if !ok || len(got) != 1 || got[0] != "b" {
		t.Fatalf("got %v, %v", got, ok)
	}
}

func TestNilTagsAreAHit(t *testing.T) {
	c := New(64)
	c.Put(1, "no subjective phrases here", nil)
	got, ok := c.Get(1, "no subjective phrases here")
	if !ok {
		t.Fatal("cached nil extraction should hit")
	}
	if got != nil {
		t.Fatalf("got %v, want nil", got)
	}
}

func TestReturnedSliceIsACopy(t *testing.T) {
	c := New(64)
	in := []string{"a", "b"}
	c.Put(1, "k", in)
	in[0] = "mutated"
	got, _ := c.Get(1, "k")
	if got[0] != "a" {
		t.Fatal("Put did not copy the caller's slice")
	}
	got[1] = "mutated"
	got2, _ := c.Get(1, "k")
	if got2[1] != "b" {
		t.Fatal("Get did not copy the stored slice")
	}
}

func TestEvictionBoundsSize(t *testing.T) {
	c := New(32) // 2 per shard
	for i := 0; i < 10_000; i++ {
		c.Put(1, fmt.Sprintf("key-%d", i), []string{"t"})
	}
	if n := c.Len(); n > 32+shardCount {
		t.Fatalf("cache grew to %d entries despite capacity 32", n)
	}
	_, _, evictions := c.Stats()
	if evictions == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestNilCacheNoOps(t *testing.T) {
	var c *Cache
	c.Put(1, "k", []string{"a"})
	if _, ok := c.Get(1, "k"); ok {
		t.Fatal("nil cache hit")
	}
	c.SetObserver(nil)
	// Get on a nil cache records nothing; Stats must be all-zero.
	if h, m, e := c.Stats(); h != 0 || m != 0 || e != 0 {
		t.Fatalf("nil cache stats = (%d, %d, %d)", h, m, e)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache Len != 0")
	}
}

func TestObserverCountersAndRatio(t *testing.T) {
	c := New(64)
	o := obs.NewObserver()
	c.SetObserver(o)
	c.Put(3, "k", []string{"a"})
	c.Get(3, "k")     // hit
	c.Get(3, "other") // miss
	snap := o.Metrics.Snapshot()
	if snap.Counters["extract.cache.hit.total"] != 1 {
		t.Fatalf("hit counter = %d", snap.Counters["extract.cache.hit.total"])
	}
	if snap.Counters["extract.cache.miss.total"] != 1 {
		t.Fatalf("miss counter = %d", snap.Counters["extract.cache.miss.total"])
	}
	if r := snap.Gauges["extract.cache.hit_ratio"]; r != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", r)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("key-%d", i%97)
				gen := uint64(1 + i%3)
				if tags, ok := c.Get(gen, key); ok && len(tags) != 1 {
					t.Errorf("corrupt entry for %s: %v", key, tags)
					return
				}
				c.Put(gen, key, []string{key})
			}
		}(g)
	}
	wg.Wait()
}

// Len returns the number of live entries (any generation).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	var n int
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}
