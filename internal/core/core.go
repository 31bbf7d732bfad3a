// Package core assembles the paper's contribution — the Subjectivity Aware
// Conversational Search Service (SACCS) — from its parts. It owns the one
// training recipe of the served extractor (TrainTagger, ServedPairer, and
// the encoder options the paper experiments vary), the extraction pipeline
// (tagging §4 + pairing §5) that turns utterances and reviews into
// subjective tags, and EntityReviews, the one producer of the review tags
// every index build consumes (§3.1): the saccs facade's IndexEntities, Table
// 2, the commands and the examples. The utterance → ranked-results pipeline
// is the saccs facade's Client.QueryCtx.
package core

import (
	"context"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"saccs/internal/extcache"
	"saccs/internal/index"
	"saccs/internal/lexicon"
	"saccs/internal/obs"
	"saccs/internal/pairing"
	"saccs/internal/tokenize"
)

// Tagger labels tokens with IOB aspect/opinion classes; tagger.Model and
// tagger.OpineDB both satisfy it.
type Tagger interface {
	Predict(tokens []string) []tokenize.Label
}

// Generationer identifies a tagger's weight state; tagger.Model and
// tagger.OpineDB both satisfy it. Equal generations promise bit-identical
// predictions, which is what lets the extraction cache serve a stored result
// in place of a decode. A Tagger without a generation (the tests' gold
// tagger and fakes) is simply never cached.
type Generationer interface {
	Generation() uint64
}

// Pairer associates aspect spans with opinion spans; the §5.1 tree and
// word-distance heuristics satisfy it directly.
type Pairer interface {
	Pairs(tokens []string, aspects, opinions []tokenize.Span) []pairing.Pair
}

// Extractor is the full §4+§5 pipeline: tag tokens, split spans, pair them,
// and render subjective tags as "<opinion> <aspect>".
type Extractor struct {
	Tagger Tagger
	Pairer Pairer
	// Cache, when non-nil and the Tagger has a weight generation
	// (Generationer), short-circuits repeated sentences: the extracted tags
	// of each normalized token sequence are stored under the tagger's
	// generation and served without a decode while the weights are
	// unchanged. A retrain or model swap bumps the generation, making every
	// stale entry unservable. Nil (the default) disables caching.
	Cache *extcache.Cache
	// Obs, when set, records tagging and pairing latency histograms. Set it
	// before use; it must not change while extractions are in flight.
	Obs *obs.Observer
}

// ExtractFromTokens extracts subjective tags from one tokenized sentence.
func (e *Extractor) ExtractFromTokens(tokens []string) []string {
	return e.ExtractFromTokensTraced(nil, tokens)
}

// ExtractFromTokensTraced is ExtractFromTokens with tracing: under parent it
// times "tagger.decode" and "pairing.pairs" stages — the §4 Viterbi decode
// and the §5 pairing stages of the pipeline — as child spans when parent is
// live. Cache hits emit the same two stages (so trace shapes and stage
// histograms are unaffected by caching) marked Cached.
func (e *Extractor) ExtractFromTokensTraced(parent *obs.Span, tokens []string) []string {
	var gen uint64
	var key string
	var tg Generationer
	if e.Cache != nil {
		if g, ok := e.Tagger.(Generationer); ok {
			tg = g
			gen = g.Generation()
			key = strings.Join(tokens, "\x1f")
			if tags, ok := e.Cache.Get(gen, key); ok {
				st := obs.BeginStage(e.Obs, parent, "tagger.decode")
				if sp := st.Span(); sp.Live() {
					sp.Set("tokens", len(tokens))
				}
				st.Cached()
				st.End()
				st = obs.BeginStage(e.Obs, parent, "pairing.pairs")
				st.Cached()
				st.End()
				return tags
			}
		}
	}
	st := obs.BeginStage(e.Obs, parent, "tagger.decode")
	labels := e.Tagger.Predict(tokens)
	if sp := st.Span(); sp.Live() {
		sp.Set("tokens", len(tokens))
	}
	st.End()
	// Store only if the weights did not change while we were decoding: a
	// Train that overlapped this decode bumped the generation at its start,
	// so the re-read differs and the possibly-mixed result is discarded
	// rather than cached under the pre-train generation.
	genOK := tg != nil && tg.Generation() == gen
	return e.finishExtract(parent, tokens, labels, gen, genOK, key)
}

// finishExtract is the post-decode tail: span splitting, pairing, tag
// rendering, and the generation-checked cache fill. genOK reports that the
// tagger's generation was unchanged across the decode that produced labels;
// only then is the result cached under gen.
func (e *Extractor) finishExtract(parent *obs.Span, tokens []string, labels []tokenize.Label, gen uint64, genOK bool, key string) []string {
	spans := tokenize.Spans(labels)
	var aspects, opinions []tokenize.Span
	for _, sp := range spans {
		if sp.Kind == tokenize.AspectSpan {
			aspects = append(aspects, sp)
		} else {
			opinions = append(opinions, sp)
		}
	}
	st := obs.BeginStage(e.Obs, parent, "pairing.pairs")
	pairs := e.Pairer.Pairs(tokens, aspects, opinions)
	if sp := st.Span(); sp.Live() {
		sp.Set("aspects", len(aspects)).Set("opinions", len(opinions)).Set("pairs", len(pairs))
	}
	st.End()
	var tags []string
	seen := map[string]bool{}
	for _, p := range pairs {
		tag := p.Opinion.Text(tokens) + " " + p.Aspect.Text(tokens)
		if !seen[tag] {
			seen[tag] = true
			tags = append(tags, tag)
		}
	}
	if genOK {
		e.Cache.Put(gen, key, tags)
	}
	return tags
}

// ExtractTags splits free text into sentences, extracts tags from each, and
// returns every distinct tag once, in first-mention order.
func (e *Extractor) ExtractTags(text string) []string {
	// context.Background is never cancelled, so the error path is dead.
	tags, _ := e.ExtractTagsCtx(context.Background(), nil, text)
	return tags
}

// ExtractTagsCtx is ExtractTags with per-sentence stage spans attached to
// parent (see ExtractFromTokensTraced) and cooperative cancellation: the
// context is polled before each sentence's decode, so a cancelled or expired
// context aborts with ctx's error and no partial tag list. (A single
// sentence's Viterbi decode is not interruptible — stage boundaries are the
// cancellation points.)
func (e *Extractor) ExtractTagsCtx(ctx context.Context, parent *obs.Span, text string) ([]string, error) {
	var tags []string
	seen := map[string]bool{}
	for _, sent := range tokenize.Sentences(text) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, tag := range e.ExtractFromTokensTraced(parent, tokenize.Words(sent)) {
			if !seen[tag] {
				seen[tag] = true
				tags = append(tags, tag)
			}
		}
	}
	return tags, nil
}

// The paper's two similarity thresholds: ThetaIndex is Eq. 1's review-tag
// threshold θ_index (§3.1) and ThetaFilter Algorithm 1's unknown-tag
// threshold θ_filter (§3.2). The facade's DefaultConfig, Table 2 and the
// commands all read them from here.
const (
	ThetaIndex  = 0.55
	ThetaFilter = 0.45
)

// EntityReviews is the one producer of the index's input: entity i is
// ids[i] with reviews[i], and tags turns one review into its subjective
// tags. A review contributes each distinct tag once (the dedup rule of
// DESIGN.md §2), so tags must return a review's tags without repeats —
// Extractor.ExtractTags over the review text does, and so does
// yelp.Review.GoldTags, the gold ablation. The per-review lists of one entity
// are concatenated in review order, and ReviewCount is len(reviews[i]).
//
// Entities fan out across GOMAXPROCS goroutines (tags must be reentrant), one
// entity per task, and each result lands in its input slot, so the output is
// identical for any degree of parallelism. ctx is polled between entities; a
// cancelled or expired context returns ctx's error and no partial result.
func EntityReviews[R any](ctx context.Context, ids []string, reviews [][]R, tags func(R) []string) ([]index.EntityReviews, error) {
	out := make([]index.EntityReviews, len(ids))
	extract := func(i int) {
		er := index.EntityReviews{EntityID: ids[i], ReviewCount: len(reviews[i])}
		for _, r := range reviews[i] {
			er.Tags = append(er.Tags, tags(r)...)
		}
		out[i] = er
	}
	workers := min(runtime.GOMAXPROCS(0), len(ids))
	if workers <= 1 {
		for i := range ids {
			if ctx.Err() != nil {
				break
			}
			extract(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= len(ids) {
						return
					}
					extract(i)
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// CanonicalTags returns the domain's feature tags sorted — the 18 tags of
// §6.2 for the restaurants domain.
func CanonicalTags(d *lexicon.Domain) []string {
	tags := make([]string, len(d.Features))
	for i, f := range d.Features {
		tags[i] = f.Name
	}
	sort.Strings(tags)
	return tags
}
