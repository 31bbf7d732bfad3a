// Package core assembles the paper's contribution — the Subjectivity Aware
// Conversational Search Service (SACCS) — from its parts. It owns the one
// training recipe of the served extractor (TrainTagger, ServedPairer, and
// the encoder options the paper experiments vary) and the extraction
// pipeline (tagging §4 + pairing §5) that turns utterances and reviews into
// subjective tags. Service is the paper-experiment harness around them: the
// subjective tag inverted index with degrees of truth (§3.1) over a
// generated world, and Algorithm 1's filtering & ranking (§3.2–3.3) of
// queries given as tags, with the adaptive user-tag-history loop of Fig. 1.
// The utterance → ranked-results pipeline is the saccs facade's
// Client.QueryCtx.
package core

import (
	"context"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"saccs/internal/corpus"
	"saccs/internal/extcache"
	"saccs/internal/index"
	"saccs/internal/obs"
	"saccs/internal/pairing"
	"saccs/internal/search"
	"saccs/internal/sim"
	"saccs/internal/tokenize"
	"saccs/internal/yelp"
)

// Tagger labels tokens with IOB aspect/opinion classes; tagger.Model and
// tagger.OpineDB both satisfy it.
type Tagger interface {
	Predict(tokens []string) []tokenize.Label
}

// Generationer identifies a tagger's weight state; tagger.Model and
// tagger.OpineDB both satisfy it. Equal generations promise bit-identical
// predictions, which is what lets the extraction cache serve a stored result
// in place of a decode. A Tagger without a generation (GoldTagger, test
// fakes) is simply never cached.
type Generationer interface {
	Generation() uint64
}

// Pairer associates aspect spans with opinion spans; the §5.1 heuristics
// satisfy it directly and ClassifierPairer adapts the supervised model.
type Pairer interface {
	Pairs(tokens []string, aspects, opinions []tokenize.Span) []pairing.Pair
}

// ClassifierPairer adapts the §5.2 discriminative model to the Pairer
// interface: every P_all candidate scoring above Threshold becomes a pair.
type ClassifierPairer struct {
	C *pairing.Classifier
	// Threshold on the positive probability (0 defaults to 0.5).
	Threshold float64
}

// Pairs scores every aspect×opinion combination and keeps the positives.
func (p ClassifierPairer) Pairs(tokens []string, aspects, opinions []tokenize.Span) []pairing.Pair {
	th := p.Threshold
	if th == 0 {
		th = 0.5
	}
	var out []pairing.Pair
	for _, a := range aspects {
		for _, o := range opinions {
			cand := pairing.Candidate{
				Tokens: tokens, Aspects: aspects, Opinions: opinions,
				Aspect: a, Opinion: o,
			}
			if p.C.Predict(cand) >= th {
				out = append(out, pairing.Pair{Aspect: a, Opinion: o})
			}
		}
	}
	return out
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

// ExtractFromTokensTraced is ExtractFromTokens with tracing: under a live
// parent span it opens "tagger.decode" and "pairing.pairs" children — the §4
// Viterbi decode and the §5 pairing stages of the pipeline. Cache hits emit
// the same two stage spans (so trace shapes and stage histograms are
// unaffected by caching) with a "cached" attribute set.
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
				st.Span().Set("tokens", len(tokens)).Set("cached", 1)
				st.End()
				st = obs.BeginStage(e.Obs, parent, "pairing.pairs")
				st.Span().Set("cached", 1)
				st.End()
				return tags
			}
		}
	}
	st := obs.BeginStage(e.Obs, parent, "tagger.decode")
	labels := e.Tagger.Predict(tokens)
	st.Span().Set("tokens", len(tokens))
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
	st.Span().Set("aspects", len(aspects)).Set("opinions", len(opinions)).Set("pairs", len(pairs))
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

// ExtractBatch extracts tags from many tokenized sentences, fanning the
// sentences (not their callers' coarser units) across at most workers
// goroutines: 0 means GOMAXPROCS, 1 forces serial. Results land in input
// order, and since sentence extractions are independent the output is
// identical to calling ExtractFromTokens in a loop, for any worker count.
// The workers share the extractor's cache, so duplicated sentences are
// decoded once. Requires a reentrant Tagger/Pairer when workers > 1 (every
// production pipeline in this repo is; pairing.Attention is not).
func (e *Extractor) ExtractBatch(sentences [][]string, workers int) [][]string {
	out := make([][]string, len(sentences))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(sentences) {
		workers = len(sentences)
	}
	if workers <= 1 {
		for i, s := range sentences {
			out[i] = e.ExtractFromTokens(s)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sentences) {
					return
				}
				out[i] = e.ExtractFromTokens(sentences[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// ExtractTags splits free text into sentences and extracts tags from each.
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

// ReviewTagSource yields subjective tags for a review. NeuralSource runs the
// extraction pipeline; GoldSource reads the generator's gold mentions and is
// used to isolate index/ranking quality from extraction noise in ablations.
type ReviewTagSource interface {
	Tags(r *yelp.Review) []string
}

// NeuralSource extracts review tags with the full pipeline.
type NeuralSource struct {
	E *Extractor
}

// Tags runs the extractor over every sentence of the review.
func (n NeuralSource) Tags(r *yelp.Review) []string {
	var out []string
	for _, s := range r.Sentences {
		out = append(out, n.E.ExtractFromTokens(s.Tokens)...)
	}
	return out
}

// GoldSource reads the generator's gold annotation.
type GoldSource struct{}

// Tags renders each gold mention as "<opinion> <aspect>".
func (GoldSource) Tags(r *yelp.Review) []string {
	var out []string
	for _, s := range r.Sentences {
		for _, m := range s.Mentions {
			out = append(out, m.OpinionText(s.Tokens)+" "+m.AspectText(s.Tokens))
		}
	}
	return out
}

// Config tunes the service.
type Config struct {
	// ThetaIndex is the Eq. 1 review-tag similarity threshold.
	ThetaIndex float64
	// ThetaFilter is the Algorithm 1 unknown-tag similarity threshold.
	ThetaFilter float64
	// Agg is the §3.3 cross-tag aggregation.
	Agg search.Aggregation
	// TopK truncates query answers (0 = all).
	TopK int
}

// DefaultConfig returns the thresholds used across the reproduction.
func DefaultConfig() Config {
	return Config{ThetaIndex: 0.55, ThetaFilter: 0.45, Agg: search.MeanAgg, TopK: 10}
}

// Service is the paper-experiment harness: a SACCS index over a generated
// world, fed by a review-tag source (the extraction pipeline or the gold
// annotation), indexed in rounds (IndexTags, IndexPending, ResetIndex) and
// queried with subjective tags plus objective slots (QueryTags). The
// utterance → ranked-results pipeline is the saccs facade's Client.QueryCtx;
// Service carries no copy of it.
type Service struct {
	Cfg       Config
	World     *yelp.World
	Extractor *Extractor
	Measure   sim.Measure
	Index     *index.Index
	History   *index.History
	API       *search.API
	// Obs is the service's observability handle (nil when disabled); use
	// SetObserver to attach it so the index and extractor are wired too.
	Obs *obs.Observer
	// Workers bounds BuildEntityTags' extraction fan-out: 0 (the default)
	// uses GOMAXPROCS, 1 forces serial extraction. Set 1 when the extractor
	// is not reentrant — every production Tagger/Pairer in this repo is, but
	// the attention-readback pairing heuristic (pairing.Attention) is not.
	Workers int

	entityTags []index.EntityReviews
}

// SetObserver threads an observer through every instrumented component the
// service owns. Call before serving; ResetIndex preserves the wiring.
func (s *Service) SetObserver(o *obs.Observer) {
	s.Obs = o
	s.Index.SetObserver(o)
	if s.Extractor != nil {
		s.Extractor.Obs = o
		s.Extractor.Cache.SetObserver(o)
	}
}

// NewService wires a SACCS instance over a world. The similarity measure
// defaults to conceptual similarity (§3.1) when nil.
func NewService(w *yelp.World, ex *Extractor, measure sim.Measure, cfg Config) *Service {
	if measure == nil {
		measure = sim.NewConceptual()
	}
	ix := index.New(measure, cfg.ThetaIndex)
	return &Service{
		Cfg:       cfg,
		World:     w,
		Extractor: ex,
		Measure:   measure,
		Index:     ix,
		History:   index.NewHistory(),
		API:       &search.API{World: w},
	}
}

// BuildEntityTags runs the tag source over every review once and caches the
// per-entity tag multisets the indexer consumes. Extraction fans out across
// at most Workers goroutines; each result lands in its input-order slot, so
// the cached tag multisets are identical for any worker count.
//
// A NeuralSource is fanned out at sentence granularity (Extractor.
// ExtractBatch): every (entity, review, sentence) becomes one task, so a few
// review-heavy entities cannot serialize the build the way per-entity tasks
// would, and duplicated sentences share one cached decode. Any other source
// keeps the per-entity fan-out.
func (s *Service) BuildEntityTags(src ReviewTagSource) {
	var t0 time.Time
	if s.Obs != nil {
		t0 = time.Now()
	}
	out := make([]index.EntityReviews, len(s.World.Entities))
	w := s.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if ns, ok := src.(NeuralSource); ok && w > 1 {
		s.buildEntityTagsBatched(ns, w, out)
	} else {
		if w > len(s.World.Entities) {
			w = len(s.World.Entities)
		}
		s.buildEntityTagsByEntity(src, w, out)
	}
	s.entityTags = out
	if s.Obs != nil {
		s.Obs.Histogram("extract.reviews").ObserveSince(t0)
		s.Obs.Gauge("extract.entities").Set(float64(len(s.entityTags)))
		s.Obs.Gauge("extract.workers").Set(float64(w))
	}
}

// buildEntityTagsByEntity is the per-entity fan-out: one task per entity.
func (s *Service) buildEntityTagsByEntity(src ReviewTagSource, w int, out []index.EntityReviews) {
	extract := func(i int) {
		e := s.World.Entities[i]
		er := index.EntityReviews{EntityID: e.ID, ReviewCount: len(e.Reviews)}
		for _, r := range e.Reviews {
			er.Tags = append(er.Tags, src.Tags(r)...)
		}
		out[i] = er
	}
	if w <= 1 {
		for i := range s.World.Entities {
			extract(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.World.Entities) {
					return
				}
				extract(i)
			}
		}()
	}
	wg.Wait()
}

// buildEntityTagsBatched flattens every (entity, review, sentence) into one
// job list, extracts all sentences through ExtractBatch (which applies the
// Workers bound), and reassembles per-entity tag multisets in input order —
// byte-identical to the serial per-entity walk.
func (s *Service) buildEntityTagsBatched(ns NeuralSource, w int, out []index.EntityReviews) {
	var sentences [][]string
	var owner []int // flattened sentence -> entity slot
	for i, e := range s.World.Entities {
		out[i] = index.EntityReviews{EntityID: e.ID, ReviewCount: len(e.Reviews)}
		for _, r := range e.Reviews {
			for _, sent := range r.Sentences {
				sentences = append(sentences, sent.Tokens)
				owner = append(owner, i)
			}
		}
	}
	tags := ns.E.ExtractBatch(sentences, w)
	for j, t := range tags {
		out[owner[j]].Tags = append(out[owner[j]].Tags, t...)
	}
}

// EntityTags exposes the cached extraction (after BuildEntityTags).
func (s *Service) EntityTags() []index.EntityReviews {
	return append([]index.EntityReviews(nil), s.entityTags...)
}

// ResetIndex discards the index and user tag history, keeping the cached
// entity tags — used to sweep index sizes over one extraction pass.
func (s *Service) ResetIndex() {
	s.Index = index.New(s.Measure, s.Cfg.ThetaIndex)
	s.Index.SetObserver(s.Obs)
	s.History = index.NewHistory()
}

// Ranker returns an Algorithm 1 ranker pinned to the index generation
// current at the call, configured from Cfg. A ranker reads one immutable
// snapshot for its whole life; call again to see later indexing rounds.
func (s *Service) Ranker() *search.Ranker { return s.ranker(s.Index.Current()) }

func (s *Service) ranker(snap *index.Snapshot) *search.Ranker {
	return &search.Ranker{Snap: snap, ThetaFilter: s.Cfg.ThetaFilter, Agg: s.Cfg.Agg}
}

// IndexTags runs an indexing round for the given tags (Fig. 1's indexer),
// fanning out across the index's worker pool (index.Index.SetWorkers).
// BuildEntityTags must have run first.
func (s *Service) IndexTags(tags []string) {
	s.Index.Build(lower(tags), s.entityTags)
}

// IndexPending drains the user tag history into the index — the adaptive
// round of §3.1 — and returns the tags indexed.
func (s *Service) IndexPending() []string {
	pend := s.History.Drain()
	s.IndexTags(pend)
	return pend
}

// QueryTags answers a query expressed directly as subjective tags plus
// objective slots (the Table 2 harness path). Unknown tags go to the
// history. The whole query reads one pinned index snapshot, so it is
// lock-free and unaffected by concurrent indexing rounds.
func (s *Service) QueryTags(slots map[string]string, tags []string) []search.Scored {
	snap := s.Index.Current()
	apiResults := s.API.Search(slots)
	for _, t := range tags {
		if !snap.Has(strings.ToLower(t)) {
			s.History.Add(strings.ToLower(t))
		}
	}
	// context.Background is never cancelled and the candidates are resolved
	// against snap, so the error path is dead.
	ranked, _ := s.ranker(snap).TopK(context.Background(), nil, search.NewCandidates(snap, apiResults), lower(tags), s.Cfg.TopK)
	return ranked
}

// CanonicalTags returns the world's feature tags sorted — the 18 tags of
// §6.2 for the restaurants domain.
func (s *Service) CanonicalTags() []string {
	var tags []string
	for _, f := range s.World.Domain.Features {
		tags = append(tags, f.Name)
	}
	sort.Strings(tags)
	return tags
}

func lower(tags []string) []string {
	out := make([]string, len(tags))
	for i, t := range tags {
		out[i] = strings.ToLower(t)
	}
	return out
}

// GoldTagger tags sentences by replaying the generator's gold labels; it
// exists for tests and ablations that isolate the pairing or ranking stages
// from tagging noise. It matches sentences by their joined token text.
type GoldTagger struct {
	gold map[string][]tokenize.Label
}

// NewGoldTagger indexes gold sentences for lookup.
func NewGoldTagger(sentences []corpus.Sentence) *GoldTagger {
	g := &GoldTagger{gold: map[string][]tokenize.Label{}}
	for _, s := range sentences {
		g.gold[strings.Join(s.Tokens, " ")] = s.Labels
	}
	return g
}

// Predict returns the stored gold labels, or all-O for unknown sentences.
func (g *GoldTagger) Predict(tokens []string) []tokenize.Label {
	if labels, ok := g.gold[strings.Join(tokens, " ")]; ok {
		return labels
	}
	return make([]tokenize.Label, len(tokens))
}
