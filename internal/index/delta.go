package index

import (
	"context"
	"strings"
	"time"
)

// delta is one mini-snapshot: the recomputed posting entries of a set of
// dirty entities across a tag list, produced by an incremental (streaming)
// indexing round. A delta is self-contained — Entities names every entity it
// covers, and Postings[i] holds tag Tags[i]'s entries for those entities
// only — so applying it to a snapshot is "remove the dirty entities' old
// entries, merge in the new ones".
//
// Because Eq. 1's degree of truth for (tag, entity) depends only on that
// entity's own accumulated review state, a delta computed from an entity's
// full state is exactly what a batch rebuild would compute for it: merging a
// delta into the published snapshot yields a generation bit-identical to a
// full Build over the same world. (This is also why an entity that goes
// dirty in several rounds keeps the newest entry, not the max-degree one:
// Eq. 1 is not monotone — a mean-similarity can drop as reviews accumulate —
// so only the entry computed from the largest review prefix reproduces the
// batch build.)
type delta struct {
	// Entities are the dirty entity IDs the delta covers. Every posting
	// entry in Postings refers to one of them.
	Entities []string
	// Tags and Postings are parallel: Postings[i] is tag Tags[i]'s entries
	// for the dirty entities, sorted (degree desc, entity ID asc) like every
	// posting list in the index.
	Tags     []string
	Postings [][]Entry
}

// MergeDelta runs one incremental indexing round: it computes fresh posting
// entries for the dirty entities across the given tags (each entity's
// EntityReviews must carry its full accumulated review state, not just the
// new reviews — Eq. 1 is per-entity but not per-review), derives the next
// generation by replacing those entities' entries, and publishes it
// atomically. Readers in flight keep their pinned snapshot, exactly as with
// Build.
//
// The resulting generation is bit-identical to a full Build over the union
// of the dirty state and the untouched entities, provided tags covers every
// indexed tag the dirty entities may appear under.
func (ix *Index) MergeDelta(ctx context.Context, tags []string, dirty []EntityReviews) error {
	var t0 time.Time
	if ix.o != nil {
		t0 = time.Now()
	}
	cfg := ix.b.config()
	postings, err := ix.b.Postings(ctx, tags, dirty, cfg)
	if err != nil {
		return err
	}
	ids := make([]string, len(dirty))
	for i, e := range dirty {
		ids[i] = e.EntityID
	}
	d := &delta{Entities: ids, Tags: tags, Postings: postings}
	ix.publishMu.Lock()
	n := ix.publish(ix.snap.Load().withDelta(d))
	ix.publishMu.Unlock()
	if ix.o != nil {
		ix.o.Histogram("index.merge").Observe(time.Since(t0))
		ix.tagsGauge.Set(float64(n))
		ix.o.Counter("index.merge.entities.total").Add(int64(len(dirty)))
	}
	return nil
}

// withDelta derives the next generation from s by applying d: for each
// delta tag, the dirty entities' old entries are removed and the delta's
// entries merged in, preserving (degree desc, entity ID asc) order; tags the
// delta does not cover keep their posting lists untouched (shared, not
// copied). New tags are appended to the key order.
func (s *Snapshot) withDelta(d *delta) *Snapshot {
	next := s.derive(len(d.Tags))
	ents, ords := s.ents.seal(d.Postings)
	next.ents = ents
	// The dirty set as a flag per ordinal: the merge then tests each base
	// entry with one index, not a string hash. A dirty entity without an
	// ordinal has no entry anywhere to supersede.
	dirty := make([]bool, len(ents.ids))
	for _, id := range d.Entities {
		if ord, ok := ents.ord[id]; ok {
			dirty[ord] = true
		}
	}
	for i, t := range d.Tags {
		next.bind(t, mergePostings(next.tags[t], postings{entries: d.Postings[i], ords: ords[i]}, dirty))
	}
	return next
}

// mergePostings merges fresh entries for the dirty entities into a base
// posting list: base entries belonging to a dirty entity are dropped
// (superseded), and the two sorted lists interleave by (degree desc, entity
// ID asc), each entry carrying its ordinal along. The result is always
// non-nil, matching what a batch build produces for an empty posting list.
func mergePostings(base, fresh postings, dirty []bool) postings {
	n := len(base.entries) + len(fresh.entries)
	out := postings{entries: make([]Entry, 0, n), ords: make([]int32, 0, n)}
	i, j := 0, 0
	for i < len(base.entries) || j < len(fresh.entries) {
		// Skip superseded base entries first so the comparison below only
		// ever sees entries that belong in the output.
		if i < len(base.entries) && dirty[base.ords[i]] {
			i++
			continue
		}
		if i >= len(base.entries) || (j < len(fresh.entries) && comparePostings(fresh.entries[j], base.entries[i]) < 0) {
			out.entries, out.ords = append(out.entries, fresh.entries[j]), append(out.ords, fresh.ords[j])
			j++
		} else {
			out.entries, out.ords = append(out.entries, base.entries[i]), append(out.ords, base.ords[i])
			i++
		}
	}
	return out
}

// comparePostings is the global posting order: degree descending, entity ID
// ascending on ties.
func comparePostings(a, b Entry) int {
	if a.Degree != b.Degree {
		if a.Degree > b.Degree {
			return -1
		}
		return 1
	}
	return strings.Compare(a.EntityID, b.EntityID)
}
