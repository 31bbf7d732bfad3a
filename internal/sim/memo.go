package sim

import (
	"sync"
	"sync/atomic"

	"saccs/internal/obs"
)

// memoShards is the number of independently locked cache segments. Sharding
// keeps concurrent index builds and queries from serializing on one mutex.
const memoShards = 16

// DefaultMemoCapacity bounds each shard; the whole memo holds at most
// memoShards × DefaultMemoCapacity pairs before a shard is evicted wholesale.
// 16k pairs cover what is live at once — one build worker walks one tag's
// ~10k (tag, review tag) pairs at §6.1 scale and never returns to them; a
// query's unknown tag needs one pair per index key — and cost about 2 MB.
// Four times the capacity holds 6 MB more to save 16 % of that build's
// misses (183k against 217k of 1.46M lookups, ~40 ms of a 16 s set-up).
const DefaultMemoCapacity = 1024

// memoEntry caches every facet of one (a, b) phrase comparison: the plain
// Phrase score and — when the underlying measure is contradiction-aware —
// the polarity-blind base score with its conflict flag. The facets are
// filled lazily, so a pair only seen through Base never pays for Phrase.
type memoEntry struct {
	phrase             float64
	base               float64
	conflict           bool
	hasPhrase, hasBase bool
}

// pairKey is an ordered phrase pair. Keying the shard maps by the pair
// itself, not a concatenation, makes a lookup — hit or miss — allocation-free.
type pairKey [2]string

type memoShard struct {
	mu sync.Mutex
	m  map[pairKey]memoEntry
}

// Contradictor mirrors index.ContradictionAware without importing it (index
// imports sim): Base returns the polarity-blind similarity plus whether the
// phrases' polarities conflict.
type Contradictor interface {
	Base(a, b string) (float64, bool)
}

// Memo wraps a Measure with a bounded, sharded cache of pairwise scores, so
// hot paths (Eq. 1 indexing, Algorithm 1 similarity fallbacks) never
// recompute Sim(tag, reviewTag) for a repeated pair. It is safe for
// concurrent use and preserves the wrapped measure's results exactly.
//
// Memo always exposes a Base method: when the wrapped measure is itself a
// Contradictor it delegates (and caches the conflict flag); otherwise Base
// degrades to (Phrase, false), which makes the index's contradiction-aware
// path compute the same degrees as its plain path.
type Memo struct {
	m      Measure
	ca     Contradictor // non-nil when m is contradiction-aware
	cap    int
	shards [memoShards]memoShard

	hits, misses, evictions atomic.Int64

	// optional metrics (nil-safe): sim.memo.{hit,miss,eviction}.total.
	hitCtr, missCtr, evictCtr *obs.Counter
}

// NewMemo wraps m with a cache of DefaultMemoCapacity entries per shard.
func NewMemo(m Measure) *Memo { return NewMemoCapacity(m, DefaultMemoCapacity) }

// NewMemoCapacity wraps m with perShard cached pairs per shard (minimum 1).
// A full shard is cleared wholesale — cheap amortized eviction that keeps
// the memory bound hard without LRU bookkeeping.
func NewMemoCapacity(m Measure, perShard int) *Memo {
	if perShard < 1 {
		perShard = 1
	}
	memo := &Memo{m: m, cap: perShard}
	memo.ca, _ = m.(Contradictor)
	return memo
}

// Unwrap returns the measure the memo caches.
func (mm *Memo) Unwrap() Measure { return mm.m }

// SetObserver attaches hit/miss/eviction counters. Call before concurrent
// use; a nil observer detaches them.
func (mm *Memo) SetObserver(o *obs.Observer) {
	if o == nil {
		mm.hitCtr, mm.missCtr, mm.evictCtr = nil, nil, nil
		return
	}
	mm.hitCtr = o.Counter("sim.memo.hit.total")
	mm.missCtr = o.Counter("sim.memo.miss.total")
	mm.evictCtr = o.Counter("sim.memo.eviction.total")
}

// Stats returns lifetime cache hits, misses, and whole-shard evictions.
func (mm *Memo) Stats() (hits, misses, evictions int64) {
	return mm.hits.Load(), mm.misses.Load(), mm.evictions.Load()
}

// shardOf selects a shard by fnv32a over a, a 0x1f separator and b, hashed in
// place.
func shardOf(key pairKey) uint32 {
	const prime = 16777619
	var h uint32 = 2166136261
	for i := 0; i < len(key[0]); i++ {
		h = (h ^ uint32(key[0][i])) * prime
	}
	h = (h ^ 0x1f) * prime
	for i := 0; i < len(key[1]); i++ {
		h = (h ^ uint32(key[1][i])) * prime
	}
	return h % memoShards
}

// lookup fetches the cached entry for key, if any.
func (mm *Memo) lookup(key pairKey) (memoEntry, bool) {
	sh := &mm.shards[shardOf(key)]
	sh.mu.Lock()
	e, ok := sh.m[key]
	sh.mu.Unlock()
	return e, ok
}

// store merges upd into the cached entry for key, evicting the whole shard
// first when it is full. Concurrent writers for the same key write identical
// facet values (the measure is deterministic), so last-write-wins is safe.
func (mm *Memo) store(key pairKey, upd memoEntry) {
	sh := &mm.shards[shardOf(key)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[pairKey]memoEntry, mm.cap)
	}
	prev, existed := sh.m[key]
	if !existed && len(sh.m) >= mm.cap {
		sh.m = make(map[pairKey]memoEntry, mm.cap)
		mm.evictions.Add(1)
		mm.evictCtr.Inc()
	}
	if upd.hasPhrase {
		prev.phrase, prev.hasPhrase = upd.phrase, true
	}
	if upd.hasBase {
		prev.base, prev.conflict, prev.hasBase = upd.base, upd.conflict, true
	}
	sh.m[key] = prev
	sh.mu.Unlock()
}

// Phrase returns the wrapped measure's Phrase(a, b), cached.
func (mm *Memo) Phrase(a, b string) float64 {
	key := pairKey{a, b}
	if e, ok := mm.lookup(key); ok && e.hasPhrase {
		mm.hits.Add(1)
		mm.hitCtr.Inc()
		return e.phrase
	}
	mm.misses.Add(1)
	mm.missCtr.Inc()
	s := mm.m.Phrase(a, b)
	mm.store(key, memoEntry{phrase: s, hasPhrase: true})
	return s
}

// Base returns the wrapped measure's polarity-blind similarity and conflict
// flag, cached. For a measure without a Base of its own it returns
// (Phrase(a, b), false).
func (mm *Memo) Base(a, b string) (float64, bool) {
	key := pairKey{a, b}
	if e, ok := mm.lookup(key); ok && e.hasBase {
		mm.hits.Add(1)
		mm.hitCtr.Inc()
		return e.base, e.conflict
	}
	mm.misses.Add(1)
	mm.missCtr.Inc()
	var s float64
	var conflict bool
	if mm.ca != nil {
		s, conflict = mm.ca.Base(a, b)
	} else {
		s = mm.m.Phrase(a, b)
	}
	mm.store(key, memoEntry{base: s, conflict: conflict, hasBase: true})
	return s, conflict
}
