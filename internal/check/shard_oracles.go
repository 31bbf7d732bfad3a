package check

import (
	"context"
	"fmt"
	"sync"

	"saccs/internal/index"
	"saccs/internal/search"
	"saccs/internal/shard"
	"saccs/internal/sim"
)

// ShardMergeOracle checks the scatter-gather contract of internal/shard: for
// every shard count in shards, ranking a random query workload through a
// partitioned router (per-shard top-k, then merge) must be byte-identical to
// ranking the same world on one unsharded index — same entities, same
// scores, same order, same truncation. Phase two replays queries through
// freshly pinned views while one shard continuously republishes the same
// contents; under -race this doubles as a data-race probe, and every result
// must still match the unsharded baseline.
func ShardMergeOracle(seed int64, shards []int, queries int) error {
	g := NewGen(seed)
	tags := g.Tags(12)
	ents := g.Entities(60)
	single := buildIndex(tags, ents, 0.55, 0)

	ids := make([]string, len(ents))
	for i, e := range ents {
		ids[i] = e.EntityID
	}
	qs := make([]rankQuery, queries)
	ks := make([]int, queries)
	for i := range qs {
		qt := []string{g.pick(tags)}
		if g.rng.Intn(2) == 0 {
			qt = append(qt, g.Tag()) // possibly unknown → similar-tag union
		}
		qs[i] = rankQuery{api: g.subset(ids), tags: qt}
		ks[i] = []int{0, 1, 5, 1000}[g.rng.Intn(4)]
	}
	baseline := func(q rankQuery, k int) ([]search.Scored, error) {
		rk := &search.Ranker{Snap: single.Current(), ThetaFilter: 0.45, Agg: search.MeanAgg}
		out, err := rk.RankCtx(context.Background(), nil, q.api, q.tags)
		return search.Truncate(out, k), err
	}

	for _, n := range shards {
		r := shard.New(n, search.MeanAgg, func() *index.Index {
			return index.New(sim.NewConceptual(), 0.55)
		})
		r.Build(tags, ents)
		view := r.Pin()
		for i, q := range qs {
			want, err := baseline(q, ks[i])
			if err != nil {
				return fmt.Errorf("shard-merge oracle (seed %d): baseline query %d: %w", seed, i, err)
			}
			got, err := view.TopK(context.Background(), nil, q.api, q.tags, 0.45, ks[i])
			if err != nil {
				return fmt.Errorf("shard-merge oracle (seed %d, %d shards): query %d: %w", seed, n, i, err)
			}
			if err := DiffScored(fmt.Sprintf("shard-merge %d-shard query %d k=%d (seed %d)", n, i, ks[i], seed),
				want, got); err != nil {
				return err
			}
		}

		// Phase two: pinned queries race one shard's republish of identical
		// contents. A fresh pin may land on either generation; both hold the
		// same postings, so every answer must still equal the baseline.
		parts := r.Partition(ents)
		stop := make(chan struct{})
		var rebuilder sync.WaitGroup
		rebuilder.Add(1)
		go func() {
			defer rebuilder.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Shard(0).Build(tags, parts[0])
			}
		}()
		var firstErr error
		var mu sync.Mutex
		var readers sync.WaitGroup
		for w := 0; w < 4; w++ {
			readers.Add(1)
			go func(w int) {
				defer readers.Done()
				for k := 0; k < len(qs); k++ {
					i := (k + w) % len(qs)
					want, err := baseline(qs[i], ks[i])
					if err == nil {
						var got []search.Scored
						got, err = r.Pin().TopK(context.Background(), nil, qs[i].api, qs[i].tags, 0.45, ks[i])
						if err == nil {
							err = DiffScored(fmt.Sprintf("shard-merge %d-shard racing query %d (goroutine %d, seed %d)", n, i, w, seed),
								want, got)
						}
					}
					if err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
			}(w)
		}
		readers.Wait()
		close(stop)
		rebuilder.Wait()
		if firstErr != nil {
			return firstErr
		}
	}
	return nil
}
