package index

import (
	"context"
	"slices"
	"sync"
	"time"

	"saccs/internal/obs"
	"saccs/internal/sim"
)

// entityTable is the dense entity numbering behind the map-free ranker: every
// entity that has ever appeared in a posting list of one Index gets an
// ordinal, so per-query working memory can be flat arrays indexed by ordinal
// instead of maps keyed by ID. The table belongs to the Index, not to a
// generation: it is append-only along the chain of snapshots an Index
// publishes (an ID keeps its ordinal for the Index's lifetime, which is what
// lets a derived generation share its parent's posting lists, ordinals
// included), and it is copy-on-grow — a table a published snapshot points at
// is never written again, so reading it needs no lock. Ordinals are derived
// state: they are assigned when a generation is sealed and never persisted,
// so snapshot files stay a pure tag → (ID, degree) map that any Index can
// load whatever numbering it already carries.
type entityTable struct {
	ids []string         // ordinal → entity ID
	ord map[string]int32 // entity ID → ordinal
}

// postings is one tag's posting list with its entries' ordinals alongside:
// ords[i] is entries[i].EntityID's ordinal in the owning snapshot's table.
// Both slices are frozen at publication and shared between generations.
type postings struct {
	entries []Entry
	ords    []int32
}

// seal is the one step through which posting lists enter a generation (with,
// withDelta and withContents all call it): it returns the ordinals of every
// entry of lists, and t extended by the IDs it had not seen — t itself when
// there are none, a grown copy otherwise. New IDs are numbered in ascending
// ID order, so the assignment depends only on which IDs each sealed batch
// introduces, not on tag order, posting order or degrees: one Build, a
// stream of deltas with the same arrival batches, and a Load of the saved
// result all number a world identically.
func (t *entityTable) seal(lists [][]Entry) (*entityTable, [][]int32) {
	ords := make([][]int32, len(lists))
	var fresh []string
	var pending map[string]struct{}
	for i, list := range lists {
		o := make([]int32, len(list))
		for j, e := range list {
			ord, ok := t.ord[e.EntityID]
			if !ok {
				ord = -1
				if _, dup := pending[e.EntityID]; !dup {
					if pending == nil {
						pending = map[string]struct{}{}
					}
					pending[e.EntityID] = struct{}{}
					fresh = append(fresh, e.EntityID)
				}
			}
			o[j] = ord
		}
		ords[i] = o
	}
	if len(fresh) == 0 {
		return t, ords
	}
	slices.Sort(fresh)
	grown := &entityTable{
		ids: append(t.ids[:len(t.ids):len(t.ids)], fresh...),
		ord: make(map[string]int32, len(t.ids)+len(fresh)),
	}
	for ord, id := range grown.ids {
		grown.ord[id] = int32(ord)
	}
	for i, list := range lists {
		for j, e := range list {
			if ords[i][j] < 0 {
				ords[i][j] = grown.ord[e.EntityID]
			}
		}
	}
	return grown, ords
}

// Snapshot is one immutable, published generation of the index: the tag →
// posting-list map frozen at publication time. Every method is a pure read —
// the struct has no mutex field at all, and no lock is reachable from it: the
// similar-tag scan scores the query tag against the prepared keys sealed into
// the snapshot with an immutable measure. Queries that pin a snapshot run
// completely lock-free and are never blocked (or affected) by a concurrent
// rebuild.
//
// Obtain a snapshot with Index.Current, use it for the whole request, and
// drop it; the garbage collector reclaims superseded generations once the
// last pinned reader finishes. The memory cost of a rebuild is therefore at
// most two live generations (plus shared posting slices: a publication
// copies the map and key order but reuses every unchanged posting list).
type Snapshot struct {
	// measure scores a query tag against the prepared keys; it is immutable
	// and shared by every generation.
	measure sim.Measure
	// thetaIndex records the threshold the postings were computed with
	// (persisted informationally by Save).
	thetaIndex float64
	// tags maps an index tag to its posting list, sorted by degree desc.
	// Both map and slices are frozen at publication.
	tags map[string]postings
	// ents numbers the entities of every posting list in tags; never nil.
	ents *entityTable
	// order preserves insertion order for deterministic iteration.
	order []string
	// keys[i] is order[i] as the measure prepared it, which is what the
	// similar-tag scan reads instead of the string. Like the ordinals it is
	// derived state: a key is prepared when it first enters a generation,
	// the record is carried into every later one, and it is never persisted.
	keys []sim.Prepared
	// gen is this generation's publication number, assigned by
	// Index.publish; 0 only for the initial empty snapshot. Wide events
	// record it so a slow query can be tied to the exact index state it read.
	gen uint64

	// Read-side observability (nil when disabled). The instruments are
	// atomic; recording to them mutates no snapshot state.
	resolveHist *obs.Histogram
	exactCtr    *obs.Counter
	similarCtr  *obs.Counter
}

// simScanCheckEvery is how many index keys the similarity fallback scans
// between context polls: frequent enough that an expired deadline interrupts
// a long scan within a few key comparisons, rare enough to stay off the
// per-key fast path.
const simScanCheckEvery = 32

// Generation returns the snapshot's publication number: 0 for the initial
// empty snapshot, then incrementing with every published generation.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Has reports whether tag is an index key (§3.2's "t ∈ index.keys").
func (s *Snapshot) Has(tag string) bool {
	_, ok := s.tags[tag]
	return ok
}

// Len returns the number of indexed tags.
func (s *Snapshot) Len() int { return len(s.order) }

// Tags returns the index keys in insertion order (a copy; the query path
// should prefer EachTag, which does not allocate).
func (s *Snapshot) Tags() []string {
	return append([]string(nil), s.order...)
}

// EachTag calls f for every index key in insertion order, stopping early
// when f returns false.
func (s *Snapshot) EachTag(f func(tag string) bool) {
	for _, t := range s.order {
		if !f(t) {
			return
		}
	}
}

// EachEntry calls f for every posting of an exact index tag in degree order,
// stopping early when f returns false. Unlike Lookup it performs no copy.
func (s *Snapshot) EachEntry(tag string, f func(Entry) bool) {
	for _, e := range s.tags[tag].entries {
		if !f(e) {
			return
		}
	}
}

// Lookup returns the posting list for an exact index tag (copy).
func (s *Snapshot) Lookup(tag string) []Entry {
	return append([]Entry(nil), s.tags[tag].entries...)
}

// NumEntities returns the size of the snapshot's entity numbering: every
// ordinal a probe of this snapshot can report is in [0, NumEntities()).
func (s *Snapshot) NumEntities() int { return len(s.ents.ids) }

// Ordinal returns the dense ordinal of an entity ID, or false for an ID no
// posting list of this index has ever carried (an entity registered but not
// yet reviewed, or one whose reviews matched no tag).
func (s *Snapshot) Ordinal(id string) (int32, bool) {
	ord, ok := s.ents.ord[id]
	return ord, ok
}

// EntityID returns the ID numbered ord.
func (s *Snapshot) EntityID(ord int32) string { return s.ents.ids[ord] }

// Scratch is the caller-owned working memory of unknown-tag probes: the
// query tag as the measure prepared it, and the keys each vocabulary scan
// found similar. A probe that is handed a warm Scratch allocates nothing.
// Scans are remembered until Reset or until the Scratch is used with another
// snapshot or threshold, so a query that carries the same unknown tag twice
// scans the vocabulary once. A Scratch is not safe for concurrent use; Reset
// it before pooling, or it pins the snapshot it last probed.
type Scratch struct {
	snap  *Snapshot
	theta float64
	query sim.Prepared
	// scans[i] found hits[scans[i-1].end:scans[i].end].
	scans []scan
	hits  []similarKey
}

// scan is one unknown tag's remembered vocabulary scan.
type scan struct {
	tag string
	end int
}

// similarKey is one index key whose similarity to the probed tag exceeds
// θ_filter: its position in the key order, and that similarity.
type similarKey struct {
	key int32
	sim float64
}

// Reset forgets every scan and the snapshot they were made on, keeping the
// Scratch's storage.
func (sc *Scratch) Reset() {
	sc.snap, sc.scans, sc.hits = nil, sc.scans[:0], sc.hits[:0]
}

// similar is the similar-tag scan of §3.2: the index keys whose similarity to
// tag exceeds θ_filter, in key insertion order — the order the union's
// per-entity sums are taken in, which every consumer must keep for scores to
// stay bit-identical. The tag is prepared once and scored against the
// prepared keys; the context is polled every simScanCheckEvery keys.
func (s *Snapshot) similar(ctx context.Context, tag string, thetaFilter float64, sc *Scratch) ([]similarKey, error) {
	if sc.snap != s || sc.theta != thetaFilter {
		sc.Reset()
		sc.snap, sc.theta = s, thetaFilter
	}
	lo := 0
	for _, done := range sc.scans {
		if done.tag == tag {
			return sc.hits[lo:done.end], nil
		}
		lo = done.end
	}
	s.measure.Prepare(tag, &sc.query)
	for i := range s.keys {
		if i%simScanCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				sc.hits = sc.hits[:lo]
				return nil, err
			}
		}
		if score := sim.Penalize(s.measure.Score(&sc.query, &s.keys[i])); score > thetaFilter {
			sc.hits = append(sc.hits, similarKey{key: int32(i), sim: score})
		}
	}
	sc.scans = append(sc.scans, scan{tag: tag, end: len(sc.hits)})
	return sc.hits[lo:], nil
}

// ResolveOrdinals is the probing rule of Algorithm 1 lines 7–10 over the
// dense layout, for the ranker: an indexed tag reports f(ordinal, degree)
// once per posting; an unknown tag reports f(ordinal, sim × degree) once per
// posting of every similar index tag, leaving the caller to sum an entity's
// contributions in call order (the S_t2 union without materializing it). The
// unknown-tag scan works in sc; with a warm one the probe allocates nothing.
// It returns the number of postings read, and on a cancelled or expired
// context ctx's error, before any call to f.
func (s *Snapshot) ResolveOrdinals(ctx context.Context, tag string, thetaFilter float64, sc *Scratch, f func(ord int32, degree float64)) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	t0 := s.resolveStart()
	n := 0
	report := func(p postings, score float64) {
		for i, e := range p.entries {
			f(p.ords[i], score*e.Degree)
		}
		n += len(p.entries)
	}
	p, exact := s.tags[tag]
	if exact {
		report(p, 1) // × 1 is exact: the degree arrives bit-for-bit
	} else {
		hits, err := s.similar(ctx, tag, thetaFilter, sc)
		if err != nil {
			return 0, err
		}
		for _, h := range hits {
			report(s.tags[s.order[h.key]], h.sim)
		}
	}
	s.resolveDone(t0, exact)
	return n, nil
}

// unionScratch is Resolve's pooled working memory: the per-entity degree sums
// as a flat column indexed by ordinal. sum[o] is meaningful only while
// stamp[o] equals the current epoch — bumping the epoch invalidates the whole
// column without clearing it, and an entity whose contributions sum to zero
// is still in the union, which a zero test on sum could not tell.
type unionScratch struct {
	probe   Scratch
	epoch   uint32
	stamp   []uint32
	sum     []float64
	touched []int32 // ordinals stamped this epoch, in first-contribution order
}

var unionPool = sync.Pool{New: func() any { return new(unionScratch) }}

// begin readies the scratch for a union over n ordinals.
func (u *unionScratch) begin(n int) {
	if len(u.stamp) < n {
		u.stamp, u.sum = make([]uint32, n), make([]float64, n)
		u.epoch = 0
	}
	u.epoch++
	if u.epoch == 0 { // wrapped: stale stamps could collide with a reused epoch
		clear(u.stamp)
		u.epoch = 1
	}
	u.touched = u.touched[:0]
}

// Resolve is ResolveOrdinals materialised, for callers outside the query
// path (tests, the profile layer, benchmarks): the posting list of an indexed
// tag, or for an unknown tag the §3.2 union — the posting lists of every
// similar index tag, degrees multiplied by that similarity and summed per
// entity across contributing tags (the S_t2 construction) — as a fresh slice
// in posting order.
func (s *Snapshot) Resolve(tag string, thetaFilter float64) []Entry {
	u := unionPool.Get().(*unionScratch)
	u.begin(len(s.ents.ids))
	// context.Background is never cancelled, so the error path is dead.
	_, _ = s.ResolveOrdinals(context.Background(), tag, thetaFilter, &u.probe, func(o int32, degree float64) {
		if u.stamp[o] != u.epoch {
			u.stamp[o], u.sum[o] = u.epoch, 0
			u.touched = append(u.touched, o)
		}
		u.sum[o] += degree
	})
	entries := make([]Entry, len(u.touched))
	for i, o := range u.touched {
		entries[i] = Entry{EntityID: s.ents.ids[o], Degree: u.sum[o]}
	}
	u.probe.Reset()
	unionPool.Put(u)
	slices.SortFunc(entries, comparePostings)
	return entries
}

// resolveStart and resolveDone bracket one probe for the read-side
// instruments; both are free when no observer is attached.
func (s *Snapshot) resolveStart() time.Time {
	if s.resolveHist == nil {
		return time.Time{}
	}
	return time.Now()
}

func (s *Snapshot) resolveDone(t0 time.Time, exact bool) {
	if s.resolveHist == nil {
		return
	}
	s.resolveHist.Observe(time.Since(t0))
	if exact {
		s.exactCtr.Inc()
	} else {
		s.similarCtr.Inc()
	}
}

// derive starts the next generation: a copy of s's tag map and key order
// with room for extra new tags. Posting lists are shared, not copied, and
// the entity table is carried over for seal to extend.
func (s *Snapshot) derive(extra int) *Snapshot {
	next := &Snapshot{
		measure:     s.measure,
		thetaIndex:  s.thetaIndex,
		tags:        make(map[string]postings, len(s.tags)+extra),
		order:       make([]string, 0, len(s.order)+extra),
		keys:        make([]sim.Prepared, 0, len(s.keys)+extra),
		ents:        s.ents,
		resolveHist: s.resolveHist,
		exactCtr:    s.exactCtr,
		similarCtr:  s.similarCtr,
	}
	for _, t := range s.order {
		next.tags[t] = s.tags[t]
	}
	next.order = append(next.order, s.order...)
	next.keys = append(next.keys, s.keys...)
	return next
}

// bind sets tag's posting list, appending the tag to the key order — and
// preparing it for the similar-tag scan — when it is new.
func (s *Snapshot) bind(tag string, p postings) {
	if _, exists := s.tags[tag]; !exists {
		s.order = append(s.order, tag)
		s.keys = append(s.keys, sim.Prepared{})
		s.measure.Prepare(tag, &s.keys[len(s.keys)-1])
	}
	s.tags[tag] = p
}

// with derives the next generation: a copy of s with each tags[i] bound to
// lists[i] (appended to the key order when new).
func (s *Snapshot) with(tags []string, lists [][]Entry) *Snapshot {
	next := s.derive(len(tags))
	ents, ords := s.ents.seal(lists)
	next.ents = ents
	for i, t := range tags {
		next.bind(t, postings{entries: lists[i], ords: ords[i]})
	}
	return next
}

// withContents derives a generation whose contents are replaced wholesale
// (the Load path), keeping the measure, threshold, instruments and —
// extended, never renumbered — the entity table. Every key is prepared
// afresh.
func (s *Snapshot) withContents(tags []string, lists [][]Entry) *Snapshot {
	emptied := *s
	emptied.tags, emptied.order, emptied.keys = nil, nil, nil
	return emptied.with(tags, lists)
}

// withObserver derives a generation with re-wired read instruments (the
// SetObserver path), sharing the contents.
func (s *Snapshot) withObserver(o *obs.Observer) *Snapshot {
	next := &Snapshot{
		measure:    s.measure,
		thetaIndex: s.thetaIndex,
		tags:       s.tags,
		order:      s.order,
		keys:       s.keys,
		ents:       s.ents,
		gen:        s.gen,
	}
	if o != nil {
		next.resolveHist = o.Histogram("index.resolve")
		next.exactCtr = o.Counter("index.resolve.exact.total")
		next.similarCtr = o.Counter("index.resolve.similar.total")
	}
	return next
}
