package check

import (
	"bytes"
	"fmt"
	"sync"

	"saccs/internal/index"
	"saccs/internal/search"
	"saccs/internal/sim"
)

// Differential oracles: run the same computation two ways and require
// bit-identical results. Each oracle is deterministic in its seed.

// buildIndex builds a fresh index over the conceptual measure.
func buildIndex(tags []string, ents []index.EntityReviews, theta float64, workers int) *index.Index {
	ix := index.New(sim.NewConceptual(), theta)
	if workers != 0 {
		ix.SetWorkers(workers)
	}
	ix.Build(tags, ents)
	return ix
}

// BuildOracle checks that Index.Build is schedule-independent: a serial build
// (one worker), parallel builds at every worker count in workers, and an
// incremental AddTag-per-tag build must all produce identical indexes.
func BuildOracle(seed int64, nTags, nEntities int, workers []int) error {
	g := NewGen(seed)
	tags := g.Tags(nTags)
	ents := g.Entities(nEntities)
	serial := buildIndex(tags, ents, 0.55, 1)
	for _, w := range workers {
		par := buildIndex(tags, ents, 0.55, w)
		if err := DiffIndexes(serial, par); err != nil {
			return fmt.Errorf("serial vs %d-worker build (seed %d): %w", w, seed, err)
		}
	}
	incr := index.New(sim.NewConceptual(), 0.55)
	for _, t := range tags {
		incr.AddTag(t, ents)
	}
	if err := DiffIndexes(serial, incr); err != nil {
		return fmt.Errorf("batch Build vs incremental AddTag (seed %d): %w", seed, err)
	}
	return nil
}

// PersistOracle checks the persistence round trip: a saved-then-loaded index
// must diff clean against the original, and re-saving the loaded index must
// reproduce the snapshot byte for byte.
func PersistOracle(seed int64, nTags, nEntities int) error {
	g := NewGen(seed)
	ix := buildIndex(g.Tags(nTags), g.Entities(nEntities), 0.55, 0)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		return fmt.Errorf("persist oracle (seed %d): save: %w", seed, err)
	}
	re := index.New(sim.NewConceptual(), 0.55)
	if err := re.Load(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("persist oracle (seed %d): load: %w", seed, err)
	}
	if err := DiffIndexes(ix, re); err != nil {
		return fmt.Errorf("persisted vs rebuilt index (seed %d): %w", seed, err)
	}
	var buf2 bytes.Buffer
	if err := re.Save(&buf2); err != nil {
		return fmt.Errorf("persist oracle (seed %d): re-save: %w", seed, err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		return fmt.Errorf("persist oracle (seed %d): snapshot not byte-stable across save/load/save", seed)
	}
	return nil
}

// PreparedOracle checks that the prepared similarity kernel is the string
// form it replaced: on a random pair stream of generated tags — opinion and
// aspect variants recombined, negated and mixed with junk, which no lexicon
// phrase list enumerates — Conceptual's Score and Phrase must equal
// sim.Reference's Base and Phrase exactly. Both sides of each pair are
// prepared into two long-lived records, the way the ranker's pooled scratch
// reuses one, so a prepared phrase that kept anything of its predecessor
// would show.
func PreparedOracle(seed int64, pairs int) error {
	g := NewGen(seed)
	ref := sim.NewReference()
	c := sim.NewConceptual()
	pool := g.Tags(24)
	var pa, pb sim.Prepared
	for i := 0; i < pairs; i++ {
		a, b := g.pick(pool), g.pick(pool)
		c.Prepare(a, &pa)
		c.Prepare(b, &pb)
		gb, gc := c.Score(&pa, &pb)
		rb, rc := ref.Base(a, b)
		if gb != rb || gc != rc {
			return fmt.Errorf("prepared oracle (seed %d): Score(%q, %q): prepared (%.17g, %v), reference (%.17g, %v)",
				seed, a, b, gb, gc, rb, rc)
		}
		if gp, rp := c.Phrase(a, b), ref.Phrase(a, b); gp != rp {
			return fmt.Errorf("prepared oracle (seed %d): Phrase(%q, %q): prepared %.17g, reference %.17g", seed, a, b, gp, rp)
		}
	}
	return nil
}

// rankQuery is one Rank invocation's inputs.
type rankQuery struct {
	api  []string
	tags []string
}

// QueryOracle checks that ranking is concurrency-independent. Phase one: a
// random query workload (known and unknown tags) is ranked once serially,
// then replayed from `goroutines` goroutines against the same index — every
// result list must be identical to the serial baseline. Phase two: queries
// restricted to exact indexed tags are replayed while a concurrent Build adds
// unrelated tags; exact-hit resolution must be unaffected by the writer.
func QueryOracle(seed int64, goroutines, queries int) error {
	g := NewGen(seed)
	tags := g.Tags(12)
	ents := g.Entities(48)
	ix := buildIndex(tags, ents, 0.55, 0)
	// Each rank pins the generation current when it starts, as a request
	// does.
	rank := func(q rankQuery) []search.Scored {
		rk := &search.Ranker{Snap: ix.Current(), ThetaFilter: 0.45, Agg: search.MeanAgg}
		return rk.Rank(q.api, q.tags)
	}

	ids := make([]string, len(ents))
	for i, e := range ents {
		ids[i] = e.EntityID
	}

	mixed := make([]rankQuery, queries)
	exact := make([]rankQuery, queries)
	for i := range mixed {
		qt := []string{g.pick(tags)}
		if g.rng.Intn(2) == 0 {
			qt = append(qt, g.Tag()) // possibly unknown → similar-tag union
		}
		mixed[i] = rankQuery{api: g.subset(ids), tags: qt}
		exact[i] = rankQuery{api: g.subset(ids), tags: []string{g.pick(tags), g.pick(tags)}}
	}

	serialRank := func(qs []rankQuery) [][]search.Scored {
		out := make([][]search.Scored, len(qs))
		for i, q := range qs {
			out[i] = rank(q)
		}
		return out
	}
	replay := func(qs []rankQuery, want [][]search.Scored, label string) error {
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Each goroutine starts at a different offset so lock
				// interleavings differ across workers.
				for k := 0; k < len(qs); k++ {
					i := (k + w) % len(qs)
					if err := DiffScored(fmt.Sprintf("%s query %d (goroutine %d, seed %d)", label, i, w, seed),
						want[i], rank(qs[i])); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		return <-errs
	}

	if err := replay(mixed, serialRank(mixed), "concurrent"); err != nil {
		return err
	}

	// Phase two: reads race a writer adding disjoint tags. Exact-hit queries
	// must still match the baseline computed before the build started.
	wantExact := serialRank(exact)
	extra := g.Tags(6)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ix.Build(extra, ents)
	}()
	err := replay(exact, wantExact, "query-during-build")
	<-done
	return err
}
