package search

import (
	"context"

	"saccs/internal/index"
	"saccs/internal/obs"
)

// View is one pinned, immutable read view of the subjective tag index: every
// probe made through a View observes a single consistent generation (or, for
// a partitioned searcher, one consistent vector of per-shard generations),
// no matter how many concurrent writers publish while the request runs.
type View interface {
	// Generation identifies the pinned state; for sharded views it is the
	// sum of the pinned per-shard generations, which is monotone under the
	// per-shard publish counters.
	Generation() uint64
	// Has reports whether the tag is indexed in the pinned state.
	Has(tag string) bool
	// TopK runs Algorithm 1 (Ranker.TopK) over the pinned state —
	// restricted to apiResults, aggregated across tags, ordered by
	// coverage/score/ID with the ID-sorted untagged tail — and returns the
	// first k results (k <= 0 means unbounded). parent, when live, receives one
	// "index.resolve" child span per tag probe.
	TopK(ctx context.Context, parent *obs.Span, apiResults, tags []string, thetaFilter float64, k int) ([]Scored, error)
}

// Single pins views of one *index.Index: Pin captures the index's current
// immutable snapshot — the per-request pinning of an unsharded client.
type Single struct {
	Index *index.Index
	// Agg is the §3.3 cross-tag aggregation TopK ranks with.
	Agg Aggregation
}

// Pin captures the current snapshot.
func (s Single) Pin() View { return singleView{snap: s.Index.Current(), agg: s.Agg} }

type singleView struct {
	snap *index.Snapshot
	agg  Aggregation
}

func (v singleView) Generation() uint64 { return v.snap.Generation() }

func (v singleView) Has(tag string) bool { return v.snap.Has(tag) }

func (v singleView) TopK(ctx context.Context, parent *obs.Span, apiResults, tags []string, thetaFilter float64, k int) ([]Scored, error) {
	r := &Ranker{Snap: v.snap, ThetaFilter: thetaFilter, Agg: v.agg}
	return r.TopK(ctx, parent, apiResults, tags, k)
}

// Truncate caps a ranked list at k entries; k <= 0 leaves it unbounded.
func Truncate(s []Scored, k int) []Scored { return s[:bound(len(s), k)] }

// bound is the length of a list of n results capped at k; k <= 0 is no cap.
func bound(n, k int) int {
	if k > 0 && k < n {
		return k
	}
	return n
}
