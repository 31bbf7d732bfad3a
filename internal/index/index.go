// Package index implements the subjective tag inverted index of §3.1
// (Table 1, Fig. 1): each subjective tag maps to the entities whose reviews
// mention it, with a degree of truth computed by Eq. 1:
//
//	Deg_truth(tag, e) = log(|Re|+1) / |T_e^tag| · Σ_{t ∈ T_e^tag} Sim(tag, t)
//
// where Re is e's review set and T_e^tag the review tags whose similarity to
// tag exceeds θ_index. Unknown query tags are answered by combining similar
// index tags (§3.2) and queued in the user tag history for the next indexing
// round — the adaptive loop of Fig. 1.
//
// # Concurrency: read-copy-update
//
// The index is split into a mutable Builder (the write side: Eq. 1 posting
// computation, worker pool) and an immutable Snapshot (the read side:
// lock-free probes over a frozen tag → postings map), published
// through an atomic pointer. Queries pin one Snapshot with Current at the
// start of the request and run against it lock-free for the request's whole
// lifetime; Build/AddTag/Load compute the next generation off to the side
// and publish it with a single atomic store. Readers in flight keep their
// old snapshot — a rebuild can neither block nor change a running query.
// Writers are serialized against each other by a small publish mutex that no
// reader ever touches.
//
// Build fans its Eq. 1 work out across a bounded worker pool (SetWorkers) —
// across tags for batch builds, across entity chunks for single-tag AddTag —
// and merges deterministically, so a parallel build is byte-identical to a
// serial one. Every phrase is analysed once (sim.Measure.Prepare): an index
// key when it enters a generation, a review tag once per indexing round, a
// query tag once per probe; all similarity scoring is between prepared forms.
// The BuildCtx/AddTagCtx variants poll their context between tags and
// entities and abort without publishing when it is cancelled.
package index

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"saccs/internal/obs"
	"saccs/internal/sim"
)

// Entry is one entity under a tag with its degree of truth.
type Entry struct {
	EntityID string
	Degree   float64
}

// EntityReviews is the per-entity input to indexing: how many reviews the
// entity has and every subjective tag the extractor pulled from them.
type EntityReviews struct {
	EntityID    string
	ReviewCount int
	Tags        []string
}

// Index is the subjective tag inverted index: a Builder computing posting
// lists off to the side, plus the atomically published current Snapshot.
// All read methods (Has, Lookup, Resolve, …) delegate to the snapshot
// current at call time; a request that needs one consistent view across
// several probes should pin Current() once and read through it.
type Index struct {
	// b computes posting lists and owns the indexing configuration.
	b *Builder

	// snap is the current published generation; never nil after New.
	snap atomic.Pointer[Snapshot]

	// publishMu serializes writers (Build, AddTag, Load, SetObserver)
	// deriving the next generation from the current one. Readers never
	// acquire it.
	publishMu sync.Mutex

	// gens numbers published generations; the counter lives on the Index
	// (not the snapshot chain) so SetObserver's republication of identical
	// contents does not consume a number.
	gens atomic.Uint64

	// Write-side observability (nil when disabled; see SetObserver, which
	// must be called before concurrent use).
	o            *obs.Observer
	addTagHist   *obs.Histogram
	buildHist    *obs.Histogram
	tagsGauge    *obs.Gauge
	workersGauge *obs.Gauge
	entriesCtr   *obs.Counter
}

// New returns an empty index using the given similarity measure and
// θ_index threshold for review-tag matching. Eq. 1's review-count weighting
// is on by default; the worker pool defaults to GOMAXPROCS. The measure must
// be safe for concurrent use: builds and every published snapshot score
// through it.
func New(measure sim.Measure, thetaIndex float64) *Index {
	ix := &Index{b: NewBuilder(measure, thetaIndex)}
	ix.snap.Store(&Snapshot{
		measure:    measure,
		thetaIndex: thetaIndex,
		tags:       map[string]postings{},
		ents:       &entityTable{},
	})
	return ix
}

// Current returns the currently published snapshot. The returned value is
// immutable and remains valid (and unchanged) for as long as the caller
// holds it, no matter how many rebuilds publish after it — pin it once per
// request for a consistent, lock-free view.
func (ix *Index) Current() *Snapshot { return ix.snap.Load() }

// Builder exposes the write side (for advanced callers that compute posting
// lists themselves; most should use Build/AddTag).
func (ix *Index) Builder() *Builder { return ix.b }

// SetObserver attaches runtime observability: indexing rounds record build
// latency, worker count, and tag/entry counts; lookups record resolution
// latency and exact-vs-similar hit counters. Call before concurrent use; a
// nil observer (the default) keeps every hot path free of instrumentation
// cost.
func (ix *Index) SetObserver(o *obs.Observer) {
	ix.publishMu.Lock()
	defer ix.publishMu.Unlock()
	ix.o = o
	ix.b.SetObserver(o)
	if o == nil {
		ix.addTagHist, ix.buildHist = nil, nil
		ix.tagsGauge, ix.workersGauge = nil, nil
		ix.entriesCtr = nil
	} else {
		ix.addTagHist = o.Histogram("index.add_tag")
		ix.buildHist = o.Histogram("index.build")
		ix.tagsGauge = o.Gauge("index.tags")
		ix.workersGauge = o.Gauge("index.build.workers")
		ix.entriesCtr = o.Counter("index.entries.total")
	}
	// Republish the current contents with re-wired read instruments.
	ix.snap.Store(ix.snap.Load().withObserver(o))
}

// SetReviewWeighting toggles Eq. 1's log(|Re|+1) factor (ablation knob).
// It affects subsequent builds only.
func (ix *Index) SetReviewWeighting(on bool) { ix.b.SetReviewWeighting(on) }

// SetFrequencyAware toggles the mention-rate factor (ablation knob).
func (ix *Index) SetFrequencyAware(on bool) { ix.b.SetFrequencyAware(on) }

// SetWorkers bounds the indexing worker pool; see Builder.SetWorkers.
func (ix *Index) SetWorkers(n int) { ix.b.SetWorkers(n) }

// publish stamps next with a fresh generation number, installs it as the
// current generation, and returns its key count. Publication is also the
// readiness signal: with an observer attached, the service's health flips to
// ready on the first published generation.
func (ix *Index) publish(next *Snapshot) int {
	next.gen = ix.gens.Add(1)
	ix.snap.Store(next)
	if ix.o != nil {
		ix.o.Gauge("index.generation").Set(float64(next.gen))
		ix.o.MarkReady()
	}
	return len(next.order)
}

// AddTag runs one indexing round for a single tag (Fig. 1's indexer): every
// entity whose review tags include a mention similar enough to the tag is
// added with its Eq. 1 degree of truth, fanning out across the worker pool
// for large entity sets. Re-adding a tag recomputes its posting list. The
// new generation is published atomically; readers in flight keep theirs.
func (ix *Index) AddTag(tag string, entities []EntityReviews) {
	_ = ix.AddTagCtx(context.Background(), tag, entities)
}

// AddTagCtx is AddTag with cooperative cancellation: the posting computation
// polls ctx per entity, and a cancelled or expired context aborts the round
// with ctx's error before anything is published — the index is unchanged.
func (ix *Index) AddTagCtx(ctx context.Context, tag string, entities []EntityReviews) error {
	var t0 time.Time
	if ix.o != nil {
		t0 = time.Now()
	}
	cfg := ix.b.config()
	entries, err := ix.b.PostingsForTag(ctx, tag, entities, cfg)
	if err != nil {
		return err
	}
	ix.publishMu.Lock()
	n := ix.publish(ix.snap.Load().with([]string{tag}, [][]Entry{entries}))
	ix.publishMu.Unlock()
	if ix.o != nil {
		ix.addTagHist.Observe(time.Since(t0))
		ix.entriesCtr.Add(int64(len(entries)))
		ix.tagsGauge.Set(float64(n))
	}
	return nil
}

// Build indexes a whole tag set in one pass, fanning out across the worker
// pool — one goroutine per tag, each computing its posting list serially —
// then deriving and atomically publishing the next generation. The resulting
// index is byte-identical to a serial build. Latency, worker count, and
// resulting size are recorded when an observer is attached.
func (ix *Index) Build(tags []string, entities []EntityReviews) {
	_ = ix.BuildCtx(context.Background(), tags, entities)
}

// BuildCtx is Build with cooperative cancellation: worker loops poll ctx
// between tags and entities, and a cancelled or expired context aborts the
// whole round with ctx's error before anything is published — readers keep
// seeing the previous generation and no partial build ever becomes visible.
func (ix *Index) BuildCtx(ctx context.Context, tags []string, entities []EntityReviews) error {
	var t0 time.Time
	if ix.o != nil {
		t0 = time.Now()
	}
	cfg := ix.b.config()
	results, err := ix.b.Postings(ctx, tags, entities, cfg)
	if err != nil {
		return err
	}
	ix.publishMu.Lock()
	n := ix.publish(ix.snap.Load().with(tags, results))
	ix.publishMu.Unlock()
	if ix.o != nil {
		ix.buildHist.Observe(time.Since(t0))
		var total int64
		for _, es := range results {
			total += int64(len(es))
		}
		ix.entriesCtr.Add(total)
		ix.tagsGauge.Set(float64(n))
		ix.workersGauge.Set(float64(cfg.workers))
		ix.o.Gauge("index.build.entities").Set(float64(len(entities)))
	}
	return nil
}

// --- read delegation --------------------------------------------------------
//
// Each method reads through the snapshot current at call time. Multi-probe
// consumers (the Ranker, Save) should pin Current() once instead, so all
// probes see one generation.

// Has reports whether tag is an index key (§3.2's "t ∈ index.keys").
func (ix *Index) Has(tag string) bool { return ix.Current().Has(tag) }

// Tags returns the index keys in insertion order (a copy; the query path
// should prefer EachTag, which does not allocate).
func (ix *Index) Tags() []string { return ix.Current().Tags() }

// EachTag calls f for every index key in insertion order, stopping early
// when f returns false. The iteration is over one pinned snapshot, so f may
// call back into the index freely (nothing is locked).
func (ix *Index) EachTag(f func(tag string) bool) { ix.Current().EachTag(f) }

// EachEntry calls f for every posting of an exact index tag in degree order,
// stopping early when f returns false. Unlike Lookup it performs no copy.
func (ix *Index) EachEntry(tag string, f func(Entry) bool) { ix.Current().EachEntry(tag, f) }

// Len returns the number of indexed tags.
func (ix *Index) Len() int { return ix.Current().Len() }

// Lookup returns the posting list for an exact index tag (copy).
func (ix *Index) Lookup(tag string) []Entry { return ix.Current().Lookup(tag) }

// Resolve implements the probing rule of Algorithm 1 lines 7–10: exact hit
// when the tag is indexed, otherwise the similar-tag union; see
// Snapshot.Resolve.
func (ix *Index) Resolve(tag string, thetaFilter float64) []Entry {
	return ix.Current().Resolve(tag, thetaFilter)
}
