package check

import (
	"fmt"
	"sync"

	"saccs/internal/search"
)

// SnapshotOracle proves the read-copy-update pinning contract
// differentially. A baseline workload is ranked against the generation
// current at each rank while the index is quiescent; then the same workload
// must produce identical rankings through one Snapshot pinned up front — serially, from many goroutines while
// repeated Builds publish new generations underneath, and again after the
// last build has finished. The pinned view must be bit-stable through all of
// it even though Current() has visibly moved on, and the new generation must
// actually contain the built tags (the writer was not a no-op).
func SnapshotOracle(seed int64, goroutines, queries int) error {
	g := NewGen(seed)
	tags := g.Tags(12)
	ents := g.Entities(48)
	ix := buildIndex(tags, ents, 0.55, 0)

	ids := make([]string, len(ents))
	for i, e := range ents {
		ids[i] = e.EntityID
	}
	qs := make([]rankQuery, queries)
	for i := range qs {
		qt := []string{g.pick(tags)}
		if g.rng.Intn(2) == 0 {
			qt = append(qt, g.Tag()) // possibly unknown → similar-tag union
		}
		qs[i] = rankQuery{api: g.subset(ids), tags: qt}
	}

	// Baseline pre-rebuild, pinning per rank: only one generation exists
	// here, so any later divergence is the pinning breaking, not the workload.
	want := make([][]search.Scored, len(qs))
	for i, q := range qs {
		perRank := &search.Ranker{Snap: ix.Current(), ThetaFilter: 0.45, Agg: search.MeanAgg}
		want[i] = perRank.Rank(q.api, q.tags)
	}

	snap := ix.Current()
	lenBefore := snap.Len()
	pinned := &search.Ranker{Snap: snap, ThetaFilter: 0.45, Agg: search.MeanAgg}
	replay := func(label string) error {
		errs := make(chan error, goroutines)
		var wg sync.WaitGroup
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < len(qs); k++ {
					i := (k + w) % len(qs)
					if err := DiffScored(fmt.Sprintf("%s query %d (goroutine %d, seed %d)", label, i, w, seed),
						want[i], pinned.Rank(qs[i].api, qs[i].tags)); err != nil {
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

	// Serial sanity pass over the pinned snapshot.
	for i, q := range qs {
		if err := DiffScored(fmt.Sprintf("pinned-serial query %d (seed %d)", i, seed),
			want[i], pinned.Rank(q.api, q.tags)); err != nil {
			return err
		}
	}

	// Readers race a writer publishing new generations; every pinned read
	// must still match the pre-rebuild baseline.
	extra := g.Tags(8)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for round := 1; round <= len(extra); round++ {
			ix.Build(extra[:round], ents)
		}
	}()
	err := replay("pinned-during-rebuild")
	<-done
	if err != nil {
		return err
	}

	// The writer really published: the current generation carries the new
	// tags, the pinned one still does not.
	cur := ix.Current()
	for _, t := range extra {
		if !cur.Has(t) {
			return fmt.Errorf("snapshot oracle (seed %d): current generation missing built tag %q", seed, t)
		}
	}
	if snap.Len() != lenBefore {
		return fmt.Errorf("snapshot oracle (seed %d): pinned snapshot grew from %d to %d tags",
			seed, lenBefore, snap.Len())
	}
	orig := make(map[string]bool, len(tags))
	for _, t := range tags {
		orig[t] = true
	}
	for _, t := range extra {
		if snap.Has(t) && !orig[t] {
			return fmt.Errorf("snapshot oracle (seed %d): pinned snapshot acquired built tag %q", seed, t)
		}
	}

	// And the pinned view is still bit-stable after the dust settles.
	return replay("pinned-after-rebuild")
}
