package check

import (
	"context"
	"fmt"
	"sort"

	"saccs/internal/index"
	"saccs/internal/search"
	"saccs/internal/sim"
)

// referenceRanker is Algorithm 1 exactly as internal/search implemented it
// before the dense-ordinal ranker replaced it: string-keyed maps per query,
// a full sort, no top-k. It is kept here, unoptimised, as the reference the
// production ranker is diffed against — it reads the index only through
// Has/Lookup/Tags and recomputes similarities from strings with the
// string-walking sim.Reference, so it shares no code with
// search.Ranker.TopK, Snapshot.ResolveOrdinals or the prepared kernel.
type referenceRanker struct {
	snap    *index.Snapshot
	measure *sim.Reference
	theta   float64
	agg     search.Aggregation
}

// lookupSimilar is §3.2's similar-tag union over maps: degrees scaled by the
// key's similarity and summed per entity in key insertion order.
func (r *referenceRanker) lookupSimilar(tag string) []index.Entry {
	acc := map[string]float64{}
	for _, key := range r.snap.Tags() {
		sc := r.measure.Phrase(tag, key)
		if sc <= r.theta {
			continue
		}
		for _, entry := range r.snap.Lookup(key) {
			acc[entry.EntityID] += sc * entry.Degree
		}
	}
	entries := make([]index.Entry, 0, len(acc))
	for id, deg := range acc {
		entries = append(entries, index.Entry{EntityID: id, Degree: deg})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Degree != entries[j].Degree {
			return entries[i].Degree > entries[j].Degree
		}
		return entries[i].EntityID < entries[j].EntityID
	})
	return entries
}

func (r *referenceRanker) resolve(tag string) []index.Entry {
	if r.snap.Has(tag) {
		return r.snap.Lookup(tag)
	}
	return r.lookupSimilar(tag)
}

func (r *referenceRanker) rank(apiResults []string, tags []string) []search.Scored {
	inAPI := make(map[string]bool, len(apiResults))
	for _, id := range apiResults {
		inAPI[id] = true
	}
	if len(tags) == 0 {
		out := make([]search.Scored, 0, len(apiResults))
		for _, id := range apiResults {
			out = append(out, search.Scored{EntityID: id})
		}
		return out
	}

	perTag := make([]map[string]float64, len(tags))
	for i, tag := range tags {
		m := map[string]float64{}
		for _, entry := range r.resolve(tag) {
			if inAPI[entry.EntityID] {
				m[entry.EntityID] = entry.Degree
			}
		}
		perTag[i] = m
	}

	counts := make(map[string]int, len(apiResults))
	for _, m := range perTag {
		for id := range m {
			counts[id]++
		}
	}
	out := make([]search.Scored, 0, len(apiResults))
	seen := make(map[string]bool, len(apiResults))
	for id := range counts {
		out = append(out, search.Scored{EntityID: id, Score: r.aggregate(perTag, id), Coverage: counts[id]})
		seen[id] = true
	}
	sort.Slice(out, func(i, j int) bool {
		return search.Less(out[i], out[j])
	})
	tail := len(out)
	for _, id := range apiResults {
		if !seen[id] {
			out = append(out, search.Scored{EntityID: id})
			seen[id] = true
		}
	}
	sort.Slice(out[tail:], func(i, j int) bool {
		return out[tail+i].EntityID < out[tail+j].EntityID
	})
	return out
}

func (r *referenceRanker) aggregate(perTag []map[string]float64, id string) float64 {
	vals := make([]float64, len(perTag))
	for i, m := range perTag {
		vals[i] = m[id]
	}
	sort.Float64s(vals)
	switch r.agg {
	case search.ProductAgg:
		p := 1.0
		for _, v := range vals {
			p *= v
		}
		return p
	case search.MinAgg:
		if len(vals) == 0 {
			return 0
		}
		return vals[0]
	default:
		var s float64
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	}
}

// RankReferenceOracle diffs the dense ranker against referenceRanker, exact
// == on IDs, coverage and scores, over the adversarial generator world. The
// world is bent to reach the cases a dense layout could get wrong: an entity
// with zero reviews but matching mentions (every degree 0 — present in S_t,
// counted toward coverage, invisible to a non-zero test), API results the
// pinned snapshot has never numbered (registered but unreviewed, and
// streamed in after the pin), and duplicate API results. Every query runs
// under all three §3.3 aggregations at k ∈ {0, 1, TopK, > len}; tag sets
// are exact-only, unknown-only, mixed and empty (pass-through); and each
// unknown tag's Resolve is diffed against the reference union too.
func RankReferenceOracle(seed int64, queries int) error {
	const theta, topK = 0.45, 10
	g := NewGen(seed)
	tags := g.Tags(12)
	ents := g.Entities(48)
	// log(0+1) = 0: every posting of this entity carries degree 0.
	ents = append(ents, index.EntityReviews{EntityID: "e-zero", ReviewCount: 0, Tags: append(g.Tags(6), tags[:4]...)})
	ix := buildIndex(tags, ents, 0.55, 0)
	before := ix.Current()
	zeroPosted := false
	for _, t := range tags {
		for _, e := range before.Lookup(t) {
			zeroPosted = zeroPosted || (e.EntityID == "e-zero" && e.Degree == 0)
		}
	}
	if !zeroPosted {
		return fmt.Errorf("rank-reference oracle (seed %d): the zero-degree entity reached no posting list", seed)
	}
	late := g.Entities(52)[48:] // e048..e051: unknown to before, numbered in after
	if err := ix.MergeDelta(context.Background(), tags, late); err != nil {
		return fmt.Errorf("rank-reference oracle (seed %d): streaming late entities: %w", seed, err)
	}
	after := ix.Current()

	ids := []string{"e-zero", "unreviewed-a", "unreviewed-b"}
	for _, e := range ents[:48] {
		ids = append(ids, e.EntityID)
	}
	for _, e := range late {
		ids = append(ids, e.EntityID)
	}
	measure := sim.NewReference()

	// An unknown tag whose similar-tag union holds the zero-degree entity:
	// summed degree 0, coverage 1.
	zeroUnion := ""
	for draws := 0; zeroUnion == "" && draws < 2000; draws++ {
		t := g.Tag()
		if before.Has(t) {
			continue
		}
		ref := &referenceRanker{snap: before, measure: measure, theta: theta}
		for _, e := range ref.lookupSimilar(t) {
			if e.EntityID == "e-zero" && e.Degree == 0 {
				zeroUnion = t
			}
		}
	}
	if zeroUnion == "" {
		return fmt.Errorf("rank-reference oracle (seed %d): no unknown tag's union reached the zero-degree entity", seed)
	}

	for q := 0; q < queries; q++ {
		api := g.subset(ids)
		if q%2 == 1 { // duplicates, in arbitrary position
			api = g.shuffled(append(api, "e-zero", api[0], g.pick(api), "unreviewed-a"))
		}
		var qt []string
		switch q % 4 {
		case 0:
			qt = []string{g.pick(tags), g.pick(tags)}
		case 1:
			qt = []string{zeroUnion, g.Tag()}
		case 2:
			qt = []string{g.pick(tags), g.Tag(), g.pick(tags)}
		}
		for _, snap := range []*index.Snapshot{before, after} {
			for _, agg := range []search.Aggregation{search.MeanAgg, search.ProductAgg, search.MinAgg} {
				ref := &referenceRanker{snap: snap, measure: measure, theta: theta, agg: agg}
				want := ref.rank(api, qt)
				rk := &search.Ranker{Snap: snap, ThetaFilter: theta, Agg: agg}
				for _, k := range []int{0, 1, topK, len(api) + 5} {
					got, err := rk.TopK(context.Background(), nil, search.NewCandidates(snap, api), qt, k)
					if err != nil {
						return fmt.Errorf("rank-reference oracle (seed %d): query %d: %w", seed, q, err)
					}
					path := fmt.Sprintf("rank-reference query %d gen %d agg %d k=%d (seed %d)", q, snap.Generation(), agg, k, seed)
					if err := DiffScored(path, search.Truncate(want, k), got); err != nil {
						return err
					}
				}
			}
			for _, t := range qt {
				if snap.Has(t) {
					continue
				}
				ref := &referenceRanker{snap: snap, measure: measure, theta: theta}
				path := fmt.Sprintf("rank-reference similar union of %q gen %d (seed %d)", t, snap.Generation(), seed)
				if err := DiffPostings(path, ref.lookupSimilar(t), snap.Resolve(t, theta)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
