package check

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"saccs/internal/core"
	"saccs/internal/datasets"
	"saccs/internal/extcache"
	"saccs/internal/index"
	"saccs/internal/lexicon"
	"saccs/internal/mat"
	"saccs/internal/nn"
	"saccs/internal/pairing"
	"saccs/internal/parse"
	"saccs/internal/tagger"
	"saccs/internal/tokenize"
	"saccs/internal/yelp"
)

// Extraction oracles: the generation-keyed tag cache and the batched build
// path promise bit-identical tags to the uncached, serial pipeline — across
// repeats, worker counts, retrains, and concurrent model swaps. These checks
// make that promise falsifiable on random corpora.

// checkEnc is a deterministic, stateless, reentrant Encoder: each token's
// embedding is a pure hash of its surface form, written into a row of the
// caller's arena. It stands in for MiniBERT so the oracles exercise the full
// tagger→pairing→cache pipeline at property-test cost; since it has neither
// a reduced-precision nor a trainable forward, the oracle also covers the
// tagger over a plain Encoder.
type checkEnc struct{ dim int }

func (e checkEnc) EmbeddingDim() int { return e.dim }

func (e checkEnc) InferTokensArena(tokens []string, a *nn.Arena) *mat.Mat {
	out := a.MatRaw(len(tokens), e.dim)
	for i, t := range tokens {
		v := out.Row(i)
		h := uint64(14695981039346656037)
		for j := 0; j < len(t); j++ {
			h = (h ^ uint64(t[j])) * 1099511628211
		}
		for j := range v {
			h = (h ^ uint64(j+1)) * 1099511628211
			v[j] = float64(int64(h%2001)-1000) / 1000
		}
	}
	return out
}

// checkModel builds a small deterministic tagger over checkEnc.
func checkModel(seed int64) *tagger.Model {
	cfg := tagger.DefaultConfig()
	cfg.Hidden = 12
	cfg.Epochs = 2
	cfg.Seed = seed
	return tagger.New(checkEnc{dim: 16}, cfg)
}

// checkPairer returns the tree-distance pairing heuristic over the
// restaurants lexicon — the production default, and reentrant.
func checkPairer() core.Pairer {
	return pairing.Tree{Lex: parse.DomainLexicon(lexicon.Restaurants()), FromOpinions: true}
}

// checkExamples builds a tiny fixed training set; Train only needs gold
// labels of the right shape to run a deterministic retrain.
func checkExamples() []datasets.Example {
	return []datasets.Example{
		{
			Tokens: []string{"the", "food", "is", "delicious"},
			Labels: []tokenize.Label{tokenize.O, tokenize.BAS, tokenize.O, tokenize.BOP},
		},
		{
			Tokens: []string{"friendly", "staff", "but", "slow", "service"},
			Labels: []tokenize.Label{tokenize.BOP, tokenize.BAS, tokenize.O, tokenize.BOP, tokenize.BAS},
		},
		{
			Tokens: []string{"amazing", "thin", "crust", "pizza"},
			Labels: []tokenize.Label{tokenize.BOP, tokenize.BAS, tokenize.IAS, tokenize.IAS},
		},
	}
}

// ExtractionCacheOracle checks that the generation-keyed extraction cache is
// transparent: over a sentence stream with repeats, a cached extractor must
// produce tag lists bit-identical to an uncached extractor sharing the same
// tagger — before a retrain, and again after the retrain bumps the weight
// generation (stale entries must become unservable, not served).
func ExtractionCacheOracle(seed int64, nSentences int) error {
	g := NewGen(seed)
	m := checkModel(seed)
	p := checkPairer()
	cached := &core.Extractor{Tagger: m, Pairer: p, Cache: extcache.New(256)}
	plain := &core.Extractor{Tagger: m, Pairer: p}

	// Each distinct sentence appears exactly twice so the second pass hits
	// the cache; dedup keeps the hit accounting below exact.
	distinct := make([][]string, 0, nSentences)
	seen := map[string]bool{}
	for len(distinct) < nSentences {
		sent := tokenize.Words(g.Utterance())
		key := fmt.Sprint(sent)
		if seen[key] {
			continue
		}
		seen[key] = true
		distinct = append(distinct, sent)
	}
	stream := append(append([][]string(nil), distinct...), distinct...)

	replay := func(phase string) error {
		for i, sent := range stream {
			want := plain.ExtractFromTokens(sent)
			got := cached.ExtractFromTokens(sent)
			if err := DiffStrings(fmt.Sprintf("%s sentence %d (seed %d)", phase, i, seed), want, got); err != nil {
				return err
			}
		}
		return nil
	}

	if err := replay("cache-on vs cache-off"); err != nil {
		return err
	}
	hits, _, _ := cached.Cache.Stats()
	if hits < int64(nSentences) {
		return fmt.Errorf("cache oracle (seed %d): %d hits over %d repeated sentences, want >= %d",
			seed, hits, nSentences, nSentences)
	}

	// Retrain: the generation bump must invalidate every stored entry, so the
	// cached extractor keeps agreeing with the plain one on the new weights.
	gen0 := m.Generation()
	m.Train(checkExamples())
	if m.Generation() == gen0 {
		return fmt.Errorf("cache oracle (seed %d): Train did not bump the weight generation", seed)
	}
	hits0, _, _ := cached.Cache.Stats()
	if err := replay("post-retrain cache-on vs cache-off"); err != nil {
		return err
	}
	hits1, _, _ := cached.Cache.Stats()
	// The first post-retrain pass over each distinct sentence must miss (its
	// entry is keyed to the old generation); only the repeats may hit.
	if gained := hits1 - hits0; gained > int64(nSentences) {
		return fmt.Errorf("cache oracle (seed %d): %d hits after retrain, want <= %d (stale entries served?)",
			seed, gained, nSentences)
	}
	return nil
}

// ExtractBatchOracle checks that the index build's batch extraction is
// schedule-independent: core.EntityReviews over a generated world's review
// texts, with one cached extractor shared by every worker, must equal its
// output at one worker with an uncached extractor, at every worker count.
// The producer sizes its pool from GOMAXPROCS, so the oracle sets GOMAXPROCS
// to each count for the run and restores it after.
func ExtractBatchOracle(seed int64, entities int, workers []int) error {
	world := yelp.Generate(yelp.Config{
		Entities: entities, MeanReviews: 4, Seed: seed, City: "montreal", Cuisine: "italian",
	})
	m := checkModel(seed + 1)
	produce := func(ex *core.Extractor, procs int) []index.EntityReviews {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		// context.Background is never cancelled, so the error path is dead.
		out, _ := core.EntityReviews(context.Background(), world.IDs(), world.Reviews(),
			func(r *yelp.Review) []string { return ex.ExtractTags(r.Text) })
		return out
	}
	serial := produce(&core.Extractor{Tagger: m, Pairer: checkPairer()}, 1)
	tagged := 0
	for _, er := range serial {
		tagged += len(er.Tags)
	}
	if tagged == 0 {
		return fmt.Errorf("batch oracle (seed %d): the world extracts no tag; the comparison would be vacuous", seed)
	}
	cached := &core.Extractor{Tagger: m, Pairer: checkPairer(), Cache: extcache.New(128)}
	for _, w := range workers {
		got := produce(cached, w)
		if len(got) != len(serial) {
			return fmt.Errorf("batch oracle (seed %d): %d entities at %d workers vs %d serial", seed, len(got), w, len(serial))
		}
		for i := range serial {
			if got[i].EntityID != serial[i].EntityID || got[i].ReviewCount != serial[i].ReviewCount {
				return fmt.Errorf("batch oracle (seed %d): entity %d header (%s, %d) at %d workers vs (%s, %d) serial", seed, i,
					got[i].EntityID, got[i].ReviewCount, w, serial[i].EntityID, serial[i].ReviewCount)
			}
			if err := DiffStrings(fmt.Sprintf("%d-worker entity %s tags (seed %d)", w, serial[i].EntityID, seed),
				serial[i].Tags, got[i].Tags); err != nil {
				return err
			}
		}
	}
	return nil
}

// swapTagger atomically swaps between two tagger models — the shape of a
// live model hot-swap (or an in-place retrain) racing the query path.
type swapTagger struct {
	m atomic.Pointer[tagger.Model]
}

func (s *swapTagger) Predict(tokens []string) []tokenize.Label { return s.m.Load().Predict(tokens) }
func (s *swapTagger) Generation() uint64                       { return s.m.Load().Generation() }

// ExtractGenSwapOracle checks the cache's consistency under a concurrent
// model swap: while goroutines extract through a cached extractor, the tagger
// is swapped from model A to model B mid-stream. Every concurrent result must
// equal A's baseline or B's baseline (never a mix, never a stale cache entry
// under the wrong generation), and once the swap is visible every result must
// equal B's baseline.
func ExtractGenSwapOracle(seed int64, goroutines, nSentences int) error {
	g := NewGen(seed)
	a, b := checkModel(seed+2), checkModel(seed+3)
	p := checkPairer()

	sentences := make([][]string, nSentences)
	for i := range sentences {
		sentences[i] = tokenize.Words(g.Utterance())
	}
	baseline := func(m *tagger.Model) [][]string {
		ex := &core.Extractor{Tagger: m, Pairer: p}
		out := make([][]string, len(sentences))
		for i, s := range sentences {
			out[i] = ex.ExtractFromTokens(s)
		}
		return out
	}
	wantA, wantB := baseline(a), baseline(b)

	st := &swapTagger{}
	st.m.Store(a)
	cached := &core.Extractor{Tagger: st, Pairer: p, Cache: extcache.New(256)}

	// Phase one: goroutines replay the stream while the main goroutine swaps
	// A -> B. Each extraction is atomic w.r.t. the swap (one pointer load),
	// so its result must match one of the two baselines exactly.
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for k := range sentences {
					i := (k + w) % len(sentences)
					got := cached.ExtractFromTokens(sentences[i])
					if DiffStrings("", wantA[i], got) != nil && DiffStrings("", wantB[i], got) != nil {
						errs <- fmt.Errorf("gen-swap oracle (seed %d): goroutine %d sentence %d: %v matches neither baseline",
							seed, w, i, got)
						return
					}
				}
			}
		}(w)
	}
	st.m.Store(b) // the racing swap
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}

	// Phase two: the swap is fully visible; A's cache entries are keyed to
	// A's generation and must never be served for B.
	for i, s := range sentences {
		if err := DiffStrings(fmt.Sprintf("post-swap sentence %d (seed %d)", i, seed),
			wantB[i], cached.ExtractFromTokens(s)); err != nil {
			return err
		}
	}
	return nil
}
