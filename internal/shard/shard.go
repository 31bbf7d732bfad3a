// Package shard partitions the subjective tag index across N entity shards
// and answers queries from a merge of their rankings.
//
// # Partitioning
//
// Every entity is owned by exactly one shard, chosen by consistent hashing
// (Lamping–Veach jump hash over an FNV-64a of the entity ID). Jump hash is
// stable under shard-count changes: growing from N to N+1 shards moves only
// the ~1/(N+1) of entities that land on the new shard and nothing else,
// which is what makes re-sharding (and the replication story after it)
// an incremental data move instead of a full reshuffle.
//
// Writes route by owner: a build partitions its entity set and builds every
// shard with the same tag vocabulary; an append goes to the owning shard
// alone. Each shard is a full *index.Index publishing its own
// atomic.Pointer[Snapshot] generation.
//
// # Reads
//
// Pin captures one immutable snapshot per shard — the query's generation
// vector. Because entities are disjoint across shards and every per-entity
// quantity of Eq. 1 (degree of truth, coverage, aggregate score) depends
// only on the entity's own reviews, any vector of per-shard snapshots is a
// consistent world state: no single entity's data can be torn across
// generations. TopK ranks the shards one after another on the caller's
// goroutine with the same Algorithm 1 ranker the single index uses (one
// shard's rank costs about what handing it to another goroutine does,
// DESIGN.md §13), and merges under the deterministic coverage/score/ID
// order — byte-identical to ranking the unsharded union, because each
// shard's list is already totally ordered under that comparator and owns its
// entities exclusively.
//
// The vocabulary is replicated on all shards, so an unknown query tag is
// prepared and scanned against the keys once per shard it ranks on; the scan
// reads only the prepared keys sealed into that shard's snapshot.
package shard

import (
	"context"
	"hash/fnv"
	"sync"

	"saccs/internal/index"
	"saccs/internal/obs"
	"saccs/internal/search"
)

// Router partitions entities across shards and pins search.View read views
// over them. With one shard it degenerates to the plain single-index client:
// no partitioning, no merge, bit-identical behavior.
type Router struct {
	shards []*index.Index
	agg    search.Aggregation
}

// New creates a router over n shards (n < 1 is treated as 1), each built by
// newIndex so the caller controls measure, thresholds, and tuning. agg is
// the §3.3 cross-tag aggregation its views rank with.
func New(n int, agg search.Aggregation, newIndex func() *index.Index) *Router {
	if n < 1 {
		n = 1
	}
	shards := make([]*index.Index, n)
	for i := range shards {
		shards[i] = newIndex()
	}
	return &Router{shards: shards, agg: agg}
}

// N returns the shard count.
func (r *Router) N() int { return len(r.shards) }

// Shard returns shard i's index (for per-shard writers: ingest, tests).
func (r *Router) Shard(i int) *index.Index { return r.shards[i] }

// Owner returns the shard owning entityID.
func (r *Router) Owner(entityID string) int { return Owner(entityID, len(r.shards)) }

// Owner maps an entity ID onto one of n buckets by jump consistent hashing:
// growing n moves a key only ever onto the newest bucket.
func Owner(entityID string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(entityID))
	return jump(h.Sum64(), n)
}

// jump is the Lamping–Veach jump consistent hash: O(ln n), zero memory, and
// minimal key movement when the bucket count changes.
func jump(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// Partition splits entities by owning shard, preserving input order within
// each shard.
func (r *Router) Partition(entities []index.EntityReviews) [][]index.EntityReviews {
	parts := make([][]index.EntityReviews, len(r.shards))
	if len(r.shards) == 1 {
		parts[0] = entities
		return parts
	}
	for _, e := range entities {
		s := r.Owner(e.EntityID)
		parts[s] = append(parts[s], e)
	}
	return parts
}

// SetObserver attaches o's instruments to every shard. Call before
// concurrent use, like Index.SetObserver.
func (r *Router) SetObserver(o *obs.Observer) {
	for _, ix := range r.shards {
		ix.SetObserver(o)
	}
}

// Tags returns the index vocabulary (identical on every shard — builds and
// tag additions always apply the same tag set to all shards).
func (r *Router) Tags() []string { return r.shards[0].Tags() }

// EachTag iterates the vocabulary in insertion order (shard 0's copy).
func (r *Router) EachTag(f func(tag string) bool) { r.shards[0].EachTag(f) }

// BuildCtx routes entities to their owning shards and builds every shard
// with the same tag set, in parallel across shards. Like Index.BuildCtx it
// adds to (or recomputes) the given tags and leaves others untouched; a
// cancelled context aborts the round with no guarantee about which shards
// already published, but each shard is individually consistent and a
// repeated call converges. With one shard it is exactly Index.BuildCtx.
func (r *Router) BuildCtx(ctx context.Context, tags []string, entities []index.EntityReviews) error {
	if len(r.shards) == 1 {
		return r.shards[0].BuildCtx(ctx, tags, entities)
	}
	parts := r.Partition(entities)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, len(r.shards))
	var wg sync.WaitGroup
	for i := range r.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if errs[i] = r.shards[i].BuildCtx(ctx, tags, parts[i]); errs[i] != nil {
				cancel()
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Build is BuildCtx without cancellation.
func (r *Router) Build(tags []string, entities []index.EntityReviews) {
	_ = r.BuildCtx(context.Background(), tags, entities)
}

// Generation returns the sum of the shards' current generations — monotone
// under the per-shard publish counters, and what wide events record for a
// sharded client.
func (r *Router) Generation() uint64 {
	var g uint64
	for _, ix := range r.shards {
		g += ix.Current().Generation()
	}
	return g
}

// Pin captures the query's generation vector: one immutable snapshot per
// shard. With one shard this is exactly the single-index pin.
func (r *Router) Pin() search.View {
	if len(r.shards) == 1 {
		return search.Single{Index: r.shards[0], Agg: r.agg}.Pin()
	}
	snaps := make([]*index.Snapshot, len(r.shards))
	for i, ix := range r.shards {
		snaps[i] = ix.Current()
	}
	return &View{snaps: snaps, agg: r.agg}
}

// View is a pinned generation vector over the shards. It implements
// search.View; every read sees exactly these snapshots no matter what the
// shards publish afterwards.
type View struct {
	snaps []*index.Snapshot
	agg   search.Aggregation
}

// Generation returns the sum of the pinned per-shard generations.
func (v *View) Generation() uint64 {
	var g uint64
	for _, s := range v.snaps {
		g += s.Generation()
	}
	return g
}

// Has reports whether tag is indexed (shard 0's pinned vocabulary; the
// vocabulary is replicated on every shard).
func (v *View) Has(tag string) bool { return v.snaps[0].Has(tag) }

// TopK runs Algorithm 1 against each pinned shard that holds any of
// apiResults, in shard order on the caller's goroutine, returning on the
// first error; then k-way merges the per-shard rankings under the
// coverage/score/ID order and truncates to k. Each shard ranks only the API
// results it owns and selects its own top k (an entity beyond a shard's top
// k cannot enter the merged top k), so the merge moves at most shards×k
// results.
//
// With at least one tag the ranking is independent of apiResults order; with
// zero tags Algorithm 1 passes the API results through unranked, and the
// merge emits them ID-sorted — identical to the unsharded pass-through
// exactly when apiResults is ID-sorted, which is how the facade's objective
// filter always hands them over.
func (v *View) TopK(ctx context.Context, parent *obs.Span, apiResults, tags []string, thetaFilter float64, k int) ([]search.Scored, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	parts := make([][]string, len(v.snaps))
	for _, id := range apiResults {
		s := Owner(id, len(v.snaps))
		parts[s] = append(parts[s], id)
	}
	ranked := make([][]search.Scored, len(v.snaps))
	for i, snap := range v.snaps {
		if len(parts[i]) == 0 {
			continue
		}
		r := &search.Ranker{Snap: snap, ThetaFilter: thetaFilter, Agg: v.agg}
		out, err := r.TopK(ctx, parent, parts[i], tags, k)
		if err != nil {
			return nil, err
		}
		ranked[i] = out
	}
	return mergeRanked(ranked, k), nil
}

// mergeRanked k-way merges per-shard rankings, each already totally ordered
// under search.Less, into one list truncated to k (k <= 0 keeps all).
func mergeRanked(ranked [][]search.Scored, k int) []search.Scored {
	total := 0
	for _, rs := range ranked {
		total += len(rs)
	}
	if k > 0 && k < total {
		total = k
	}
	out := make([]search.Scored, 0, total)
	heads := make([]int, len(ranked))
	for len(out) < total {
		best := -1
		for i, rs := range ranked {
			if heads[i] >= len(rs) {
				continue
			}
			if best < 0 || search.Less(rs[heads[i]], ranked[best][heads[best]]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, ranked[best][heads[best]])
		heads[best]++
	}
	return out
}
