package check

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"

	"saccs/internal/index"
	"saccs/internal/ingest"
	"saccs/internal/sim"
)

// ingestItem is one streamed review: the review text encodes its extracted
// tags directly ("tag | tag | …"), so extraction is deterministic and the
// oracle needs no trained model.
type ingestItem struct {
	entity string
	review string
}

// ingestStream derives a deterministic append stream from the generator:
// entities cycle through a small pool, each review carrying 0–3 tags drawn
// from the vocabulary.
func ingestStream(g *Gen, n, nEntities int, tags []string) []ingestItem {
	items := make([]ingestItem, n)
	for i := range items {
		var chosen []string
		for k := g.rng.Intn(4); k > 0; k-- {
			chosen = append(chosen, g.pick(tags))
		}
		items[i] = ingestItem{
			entity: fmt.Sprintf("ent-%d", g.rng.Intn(nEntities)),
			review: strings.Join(chosen, " | "),
		}
	}
	return items
}

// splitTagsExtract is the ExtractFunc matching ingestStream's encoding.
func splitTagsExtract(texts []string) [][]string {
	out := make([][]string, len(texts))
	for i, t := range texts {
		for _, p := range strings.Split(t, " | ") {
			if p != "" {
				out[i] = append(out[i], p)
			}
		}
	}
	return out
}

// ingestWorld replays the first n items the way the batch path would see
// them: entities in first-appearance order, each accumulating its reviews'
// tags in arrival order.
func ingestWorld(items []ingestItem, n int) []index.EntityReviews {
	state := map[string]*index.EntityReviews{}
	var order []string
	for _, it := range items[:n] {
		e, ok := state[it.entity]
		if !ok {
			e = &index.EntityReviews{EntityID: it.entity}
			state[it.entity] = e
			order = append(order, it.entity)
		}
		e.ReviewCount++
		for _, tag := range splitTagsExtract([]string{it.review})[0] {
			e.Tags = append(e.Tags, tag)
		}
	}
	out := make([]index.EntityReviews, len(order))
	for i, id := range order {
		out[i] = *state[id]
	}
	return out
}

// saveBytes snapshots an index's canonical wire form.
func saveBytes(ix *index.Index) ([]byte, error) {
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// IngestQuiesceOracle checks the streaming tier's core equivalence: a world
// streamed through the WAL-backed ingester — publishes every few reviews,
// compaction checkpointing the state and truncating the WAL — must, at quiescence, be
// bit-identical (DiffIndexes clean AND Save byte-equal) to one batch Build
// over the same reviews. Then the filesystem is crashed with a torn trailing
// write and reopened: recovery must reproduce the batch build over exactly
// the acknowledged prefix that survived.
func IngestQuiesceOracle(seed int64, nAppends, nEntities int) error {
	g := NewGen(seed)
	tags := g.Tags(10)
	items := ingestStream(g, nAppends, nEntities, tags)

	fs := ingest.NewMemFS()
	ix := index.New(sim.NewConceptual(), 0.55)
	cfg := ingest.Config{FS: fs, Dir: "ingest", PublishEvery: 7, PublishInterval: -1, CompactAfter: 3, SegmentBytes: 1 << 11}
	ing, err := ingest.Open(cfg, ix, tags, nil, splitTagsExtract)
	if err != nil {
		return fmt.Errorf("ingest quiesce (seed %d): open: %w", seed, err)
	}
	ctx := context.Background()
	for i, it := range items {
		if _, err := ing.Append(ctx, it.entity, it.review); err != nil {
			return fmt.Errorf("ingest quiesce (seed %d): append %d: %w", seed, i, err)
		}
	}
	if err := ing.Flush(ctx); err != nil {
		return fmt.Errorf("ingest quiesce (seed %d): flush: %w", seed, err)
	}
	batch := buildIndex(tags, ingestWorld(items, nAppends), 0.55, 0)
	if err := DiffIndexes(batch, ix); err != nil {
		return fmt.Errorf("streamed vs batch world (seed %d): %w", seed, err)
	}
	want, err := saveBytes(batch)
	if err != nil {
		return err
	}
	got, err := saveBytes(ix)
	if err != nil {
		return err
	}
	if !bytes.Equal(want, got) {
		return fmt.Errorf("ingest quiesce (seed %d): streamed snapshot not byte-identical to batch", seed)
	}
	if err := ing.Close(); err != nil {
		return fmt.Errorf("ingest quiesce (seed %d): close: %w", seed, err)
	}

	// Crash with a torn trailing write and recover on the wreckage.
	crashed := fs.Crash(3)
	cfg.FS = crashed
	ix2 := index.New(sim.NewConceptual(), 0.55)
	ing2, err := ingest.Open(cfg, ix2, tags, nil, splitTagsExtract)
	if err != nil {
		return fmt.Errorf("ingest quiesce (seed %d): reopen after crash: %w", seed, err)
	}
	defer func() { _ = ing2.Close() }()
	recovered := 0
	for _, e := range ing2.State() {
		recovered += e.ReviewCount
	}
	if recovered != nAppends {
		return fmt.Errorf("ingest quiesce (seed %d): recovered %d of %d acknowledged reviews", seed, recovered, nAppends)
	}
	rebatch := buildIndex(tags, ingestWorld(items, recovered), 0.55, 0)
	if err := DiffIndexes(rebatch, ix2); err != nil {
		return fmt.Errorf("recovered vs batch world (seed %d): %w", seed, err)
	}
	return nil
}

// IngestPrefixOracle checks bounded-staleness publication under concurrency:
// while one writer streams reviews through the ingester, reader goroutines
// repeatedly pin the published snapshot. Every pinned snapshot must be
// byte-identical to the batch build of SOME prefix of the append order at a
// publish boundary — readers may see a stale world, never a torn or
// reordered one.
func IngestPrefixOracle(seed int64, goroutines, nAppends int) error {
	const publishEvery = 6
	g := NewGen(seed)
	tags := g.Tags(8)
	items := ingestStream(g, nAppends, 6, tags)

	// Precompute the legal worlds: one per publish boundary, plus the empty
	// initial generation and the final flush.
	legal := map[string]int{}
	for k := 0; k <= nAppends; k++ {
		if k%publishEvery == 0 || k == nAppends {
			b, err := saveBytes(buildIndex(tags, ingestWorld(items, k), 0.55, 0))
			if err != nil {
				return err
			}
			legal[string(b)] = k
		}
	}

	ix := index.New(sim.NewConceptual(), 0.55)
	ing, err := ingest.Open(ingest.Config{PublishEvery: publishEvery, PublishInterval: -1}, ix, tags, nil, splitTagsExtract)
	if err != nil {
		return fmt.Errorf("ingest prefix (seed %d): open: %w", seed, err)
	}
	ctx := context.Background()

	stop := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := ix.Current()
				var buf bytes.Buffer
				if err := snap.Save(&buf); err != nil {
					errs <- fmt.Errorf("ingest prefix (seed %d, reader %d): save: %w", seed, w, err)
					return
				}
				if _, ok := legal[buf.String()]; !ok {
					errs <- fmt.Errorf("ingest prefix (seed %d, reader %d): pinned snapshot is not a prefix of the append order", seed, w)
					return
				}
			}
		}(w)
	}

	var appendErr error
	for i, it := range items {
		if _, err := ing.Append(ctx, it.entity, it.review); err != nil {
			appendErr = fmt.Errorf("ingest prefix (seed %d): append %d: %w", seed, i, err)
			break
		}
	}
	if appendErr == nil {
		appendErr = ing.Flush(ctx)
	}
	close(stop)
	wg.Wait()
	close(errs)
	if appendErr != nil {
		return appendErr
	}
	if err := <-errs; err != nil {
		return err
	}
	if got := legal[mustString(saveBytes(ix))]; got != nAppends {
		return fmt.Errorf("ingest prefix (seed %d): quiescent world is prefix %d, want %d", seed, got, nAppends)
	}
	return ing.Close()
}

func mustString(b []byte, err error) string {
	if err != nil {
		return ""
	}
	return string(b)
}
