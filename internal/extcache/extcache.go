// Package extcache caches neural extraction results. Tagging a sentence is
// the most expensive step of the pipeline — a full MiniBERT + BiLSTM + CRF
// forward pass — yet conversational query streams and index builds present
// the same token sequences over and over (repeated utterances, slot-filled
// context rewrites, duplicated review sentences). The cache maps a
// normalized token sequence to its extracted subjective tags so repeats skip
// the network entirely.
//
// Correctness rests on generation keying: every entry is stored under the
// tagger's weight generation (see tagger.Model.Generation), and a lookup
// hits only when the stored generation equals the caller's. Retraining or
// swapping a model bumps the generation, so stale weights can never serve a
// cached result — no flush coordination needed, old entries simply stop
// matching and age out through eviction.
//
// The layout is 16 independently locked shards so concurrent queries and
// parallel index builds do not serialize on one mutex, a hard
// per-shard capacity, and wholesale shard eviction (cheap amortized O(1),
// no LRU bookkeeping). All methods are safe for concurrent use.
package extcache

import (
	"sync"
	"sync/atomic"

	"saccs/internal/obs"
)

// shardCount is the number of independently locked cache segments.
const shardCount = 16

// entry is one cached extraction: the tags produced for a token sequence by
// the weights of one generation. nil tags are a valid (and common) result —
// most sentences contain no subjective phrase — so presence in the map, not
// tag count, is the hit signal.
type entry struct {
	gen  uint64
	tags []string
}

type shard struct {
	mu sync.Mutex
	m  map[string]entry
}

// Cache is a bounded, sharded, generation-keyed extraction cache.
type Cache struct {
	cap    int // per shard
	shards [shardCount]shard

	hits, misses, evictions atomic.Int64

	// optional metrics (nil-safe): extract.cache.{hit,miss,eviction}.total
	// counters and the extract.cache.hit_ratio gauge.
	hitCtr, missCtr, evictCtr *obs.Counter
	ratio                     *obs.Gauge
}

// New returns a cache bounded to roughly size entries, spread over the
// shards (minimum one entry per shard). A size of 0 or less returns nil —
// and a nil *Cache is valid: every method no-ops, so callers need no
// enabled/disabled branches.
func New(size int) *Cache {
	if size <= 0 {
		return nil
	}
	perShard := (size + shardCount - 1) / shardCount
	if perShard < 1 {
		perShard = 1
	}
	return &Cache{cap: perShard}
}

// SetObserver attaches hit/miss/eviction counters and the hit-ratio gauge.
// Call before concurrent use; a nil observer detaches them.
func (c *Cache) SetObserver(o *obs.Observer) {
	if c == nil {
		return
	}
	if o == nil {
		c.hitCtr, c.missCtr, c.evictCtr, c.ratio = nil, nil, nil, nil
		return
	}
	c.hitCtr = o.Counter("extract.cache.hit.total")
	c.missCtr = o.Counter("extract.cache.miss.total")
	c.evictCtr = o.Counter("extract.cache.eviction.total")
	c.ratio = o.Gauge("extract.cache.hit_ratio")
}

// Stats returns lifetime hits, misses, and whole-shard evictions.
func (c *Cache) Stats() (hits, misses, evictions int64) {
	if c == nil {
		return 0, 0, 0
	}
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
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

// fnv32a over the key selects a shard.
func shardOf(key string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h % shardCount
}

// Get returns the cached tags for key computed under exactly generation gen.
// An entry stored under any other generation is a miss (the stale entry is
// left for eviction to reclaim). The returned slice is a copy — callers may
// append to or reorder it freely.
func (c *Cache) Get(gen uint64, key string) ([]string, bool) {
	if c == nil {
		return nil, false
	}
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	e, ok := sh.m[key]
	sh.mu.Unlock()
	if !ok || e.gen != gen {
		c.misses.Add(1)
		c.missCtr.Inc()
		c.observeRatio()
		return nil, false
	}
	c.hits.Add(1)
	c.hitCtr.Inc()
	c.observeRatio()
	if e.tags == nil {
		return nil, true
	}
	out := make([]string, len(e.tags))
	copy(out, e.tags)
	return out, true
}

// Put stores tags for key under generation gen, overwriting any entry from
// an older generation. The tags are copied in, so the caller keeps ownership
// of its slice. A full shard is cleared wholesale before the insert.
func (c *Cache) Put(gen uint64, key string, tags []string) {
	if c == nil {
		return
	}
	var stored []string
	if tags != nil {
		stored = make([]string, len(tags))
		copy(stored, tags)
	}
	sh := &c.shards[shardOf(key)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[string]entry, c.cap)
	}
	if _, existed := sh.m[key]; !existed && len(sh.m) >= c.cap {
		sh.m = make(map[string]entry, c.cap)
		c.evictions.Add(1)
		c.evictCtr.Inc()
	}
	sh.m[key] = entry{gen: gen, tags: stored}
	sh.mu.Unlock()
}

// observeRatio publishes the lifetime hit ratio to the gauge, when attached.
func (c *Cache) observeRatio() {
	if c.ratio == nil {
		return
	}
	h := c.hits.Load()
	total := h + c.misses.Load()
	if total > 0 {
		c.ratio.Set(float64(h) / float64(total))
	}
}
