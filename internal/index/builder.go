package index

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"

	"saccs/internal/obs"
	"saccs/internal/sim"
)

// Builder is the mutable write side of the index: it owns the indexing
// configuration (θ_index, Eq. 1 ablation knobs, worker-pool width) and
// computes posting lists off to the side of the serving Snapshot. A Builder
// never touches published state — Index derives and publishes the next
// Snapshot from the posting lists a Builder returns.
//
// Builder is safe for concurrent use: the configuration knobs are guarded by
// a mutex and captured once per build into an immutable degCfg, so worker
// goroutines never race the Set* methods, and the measure is read-only.
type Builder struct {
	// mu guards the configuration fields; posting computation reads them
	// exactly once through config().
	mu sync.Mutex

	measure sim.Measure

	thetaIndex float64
	// reviewWeight applies Eq. 1's log(|Re|+1) factor; disabling it is the
	// ablation of the review-count weighting design choice.
	reviewWeight bool
	// frequencyAware scales degrees by the square root of the matched
	// mention rate (mentions per review).
	frequencyAware bool
	// workers bounds the indexing worker pool; 0 means GOMAXPROCS.
	workers int

	matchedCtr  *obs.Counter
	conflictCtr *obs.Counter
}

// NewBuilder returns a builder over the given similarity measure and θ_index
// threshold. Eq. 1's review-count weighting and the mention-rate factor are
// on by default; the worker pool defaults to GOMAXPROCS.
func NewBuilder(measure sim.Measure, thetaIndex float64) *Builder {
	return &Builder{
		measure:        measure,
		thetaIndex:     thetaIndex,
		reviewWeight:   true,
		frequencyAware: true,
	}
}

// SetObserver wires the Eq. 1 accounting counters. A nil observer detaches
// them.
func (b *Builder) SetObserver(o *obs.Observer) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if o == nil {
		b.matchedCtr, b.conflictCtr = nil, nil
		return
	}
	b.matchedCtr = o.Counter("index.matched_mentions.total")
	b.conflictCtr = o.Counter("index.contradicted_mentions.total")
}

// SetReviewWeighting toggles Eq. 1's log(|Re|+1) factor (ablation knob).
// It affects subsequent builds only.
func (b *Builder) SetReviewWeighting(on bool) {
	b.mu.Lock()
	b.reviewWeight = on
	b.mu.Unlock()
}

// SetFrequencyAware toggles the mention-rate factor (ablation knob).
func (b *Builder) SetFrequencyAware(on bool) {
	b.mu.Lock()
	b.frequencyAware = on
	b.mu.Unlock()
}

// SetWorkers bounds the indexing worker pool: batch builds fan out across
// tags and single-tag builds across entity chunks with at most n goroutines.
// n ≤ 0 restores the default (GOMAXPROCS); n = 1 forces serial indexing. The
// merged result is identical for every worker count.
func (b *Builder) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	b.mu.Lock()
	b.workers = n
	b.mu.Unlock()
}

// degCfg is an immutable snapshot of the knobs Eq. 1 depends on, taken once
// per indexing round so worker goroutines never race the Set* methods.
type degCfg struct {
	theta          float64
	reviewWeight   bool
	frequencyAware bool
	workers        int
	matchedCtr     *obs.Counter
	conflictCtr    *obs.Counter
}

// config captures the indexing configuration under the lock.
func (b *Builder) config() degCfg {
	b.mu.Lock()
	defer b.mu.Unlock()
	w := b.workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return degCfg{
		theta:          b.thetaIndex,
		reviewWeight:   b.reviewWeight,
		frequencyAware: b.frequencyAware,
		workers:        w,
		matchedCtr:     b.matchedCtr,
		conflictCtr:    b.conflictCtr,
	}
}

// mentions is an indexing round's view of its entities: every distinct
// review tag prepared once, and each entity's review tags as positions in
// that table. It lives for one round and is read-only once built.
type mentions struct {
	distinct []sim.Prepared
	// of[i][j] is entities[i].Tags[j]'s position in distinct.
	of [][]int32
}

func (b *Builder) intern(entities []EntityReviews) *mentions {
	total := 0
	for _, e := range entities {
		total += len(e.Tags)
	}
	flat := make([]int32, total)
	m := &mentions{of: make([][]int32, len(entities))}
	seen := make(map[string]int32)
	for i, e := range entities {
		m.of[i], flat = flat[:len(e.Tags):len(e.Tags)], flat[len(e.Tags):]
		for j, t := range e.Tags {
			pos, ok := seen[t]
			if !ok {
				pos = int32(len(m.distinct))
				seen[t] = pos
				m.distinct = append(m.distinct, sim.Prepared{})
				b.measure.Prepare(t, &m.distinct[pos])
			}
			m.of[i][j] = pos
		}
	}
	return m
}

// mentionScore is Sim(tag, review tag) for one distinct review tag: the
// polarity-blind similarity and whether the two contradict each other.
type mentionScore struct {
	base     float64
	conflict bool
}

// score prepares tag and scores it against every distinct review tag of the
// round, so Eq. 1's pass over an entity's mentions is a table read each.
func (b *Builder) score(tag string, m *mentions) []mentionScore {
	var q sim.Prepared
	b.measure.Prepare(tag, &q)
	scores := make([]mentionScore, len(m.distinct))
	for i := range m.distinct {
		scores[i].base, scores[i].conflict = b.measure.Score(&q, &m.distinct[i])
	}
	return scores
}

// Postings runs Eq. 1 for every tag against every entity, fanning out across
// the worker pool — one goroutine per tag, each computing its posting list
// serially — and returns the lists in input order, so the result is identical
// for any worker count. Cancellation is checked between tags and between
// entities inside each worker loop; on a cancelled or expired context the
// whole round aborts with ctx's error and no partial lists are returned.
func (b *Builder) Postings(ctx context.Context, tags []string, entities []EntityReviews, cfg degCfg) ([][]Entry, error) {
	results := make([][]Entry, len(tags))
	m := b.intern(entities)
	if cfg.workers <= 1 || len(tags) < 2 {
		for i, t := range tags {
			var err error
			if results[i], err = b.postingsForTag(ctx, t, entities, m, cfg, false); err != nil {
				return nil, err
			}
		}
		return results, nil
	}
	sem := make(chan struct{}, cfg.workers)
	var wg sync.WaitGroup
	for i, t := range tags {
		wg.Add(1)
		go func(i int, t string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// A worker that starts after cancellation skips its tag; the
			// aggregate error check below rejects the whole round.
			if ctx.Err() != nil {
				return
			}
			results[i], _ = b.postingsForTag(ctx, t, entities, m, cfg, false)
		}(i, t)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// PostingsForTag runs Eq. 1 for one tag, fanning the entity list out across
// worker chunks (the single-tag AddTag path).
func (b *Builder) PostingsForTag(ctx context.Context, tag string, entities []EntityReviews, cfg degCfg) ([]Entry, error) {
	return b.postingsForTag(ctx, tag, entities, b.intern(entities), cfg, true)
}

// postingsForTag computes one tag's posting list over entities, whose review
// tags m holds interned, fanning out across cfg.workers contiguous entity
// chunks when parallel is set. Chunk results concatenate in input order
// before the fully tie-broken sort, so the posting list is identical for any
// worker count. The context is polled once per entity.
func (b *Builder) postingsForTag(ctx context.Context, tag string, entities []EntityReviews, m *mentions, cfg degCfg, parallel bool) ([]Entry, error) {
	w := cfg.workers
	if !parallel || w > len(entities) {
		w = 1
	}
	scores := b.score(tag, m)
	// Posting buffers are pre-sized to their worst case (every entity
	// matches) so the append loops never reallocate mid-scan.
	var entries []Entry
	if w <= 1 {
		entries = make([]Entry, 0, len(entities))
		for i, e := range entities {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			deg, matched := degreeOfTruth(scores, m.of[i], e, cfg)
			if matched == 0 {
				continue
			}
			entries = append(entries, Entry{EntityID: e.EntityID, Degree: deg})
		}
	} else {
		chunks := make([][]Entry, w)
		var wg sync.WaitGroup
		size := (len(entities) + w - 1) / w
		for c := 0; c < w; c++ {
			lo := c * size
			hi := lo + size
			if hi > len(entities) {
				hi = len(entities)
			}
			wg.Add(1)
			go func(c, lo, hi int) {
				defer wg.Done()
				out := make([]Entry, 0, hi-lo)
				for i := lo; i < hi; i++ {
					if ctx.Err() != nil {
						return
					}
					deg, matched := degreeOfTruth(scores, m.of[i], entities[i], cfg)
					if matched == 0 {
						continue
					}
					out = append(out, Entry{EntityID: entities[i].EntityID, Degree: deg})
				}
				chunks[c] = out
			}(c, lo, hi)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var n int
		for _, part := range chunks {
			n += len(part)
		}
		entries = make([]Entry, 0, n)
		for _, part := range chunks {
			entries = append(entries, part...)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Degree != entries[j].Degree {
			return entries[i].Degree > entries[j].Degree
		}
		return entries[i].EntityID < entries[j].EntityID
	})
	return entries, nil
}

// degreeOfTruth computes Eq. 1 for (tag, entity): the mean similarity of the
// entity's matching review tags, weighted by log(|Re|+1). Review tags that
// contradict the index tag (same concept, opposite polarity — "bland food"
// against "delicious food") scale the degree by the support ratio
// matched/(matched+contradicted): certainty about a tag drops when reviews
// disagree. A measure without a notion of polarity never reports a conflict
// and scores by its plain similarity. scores holds the tag's similarity to
// every distinct review tag of the round and mentioned the entity's review
// tags as positions in it, in review order — the order the sum is taken in.
// The second return is |T_e^tag|. Free function over immutable inputs so
// indexing workers share no mutable state.
func degreeOfTruth(scores []mentionScore, mentioned []int32, e EntityReviews, cfg degCfg) (float64, int) {
	var sum float64
	matched := 0
	contradicted := 0
	for _, pos := range mentioned {
		s := scores[pos]
		if s.base <= cfg.theta {
			continue
		}
		if s.conflict {
			contradicted++
			continue
		}
		sum += s.base
		matched++
	}
	if matched == 0 {
		return 0, 0
	}
	weight := 1.0
	if cfg.reviewWeight {
		weight = math.Log(float64(e.ReviewCount) + 1)
	}
	deg := weight / float64(matched) * sum
	if contradicted > 0 {
		deg *= float64(matched) / float64(matched+contradicted)
	}
	if cfg.frequencyAware && e.ReviewCount > 0 {
		// Mention-rate factor: a tag confirmed by most reviews is more
		// certain than one confirmed once. The square root keeps Eq. 1's
		// mean-similarity character dominant (see DESIGN.md §4 ablations).
		rate := float64(matched) / float64(e.ReviewCount)
		if rate > 1 {
			rate = 1
		}
		deg *= math.Sqrt(rate)
	}
	cfg.matchedCtr.Add(int64(matched))
	cfg.conflictCtr.Add(int64(contradicted))
	return deg, matched
}
