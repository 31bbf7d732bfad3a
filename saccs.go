// Package saccs is a from-scratch Go implementation of SACCS — Subjectivity
// Aware Conversational Search Services (Gaci et al., EDBT 2021): a natural
// language understanding layer that extracts subjective tags ("delicious
// food", "nice staff") from user utterances and online reviews, indexes
// entities under those tags with degrees of truth, and filters and ranks the
// results of an objective search API by the user's subjective preferences.
//
// The package exposes a compact facade over the full pipeline:
//
//	client, _ := saccs.New(saccs.DefaultConfig())
//	client.IndexEntities(entities, []string{"delicious food", "nice staff"})
//	resp := client.Query("an italian place with delicious food")
//
// Everything underneath — the MiniBERT encoder, the BiLSTM-CRF adversarial
// tagger, parse-tree and attention pairing, conceptual similarity, the
// subjective tag index and Algorithm 1's filtering & ranking — lives in
// internal/ packages and is documented in DESIGN.md.
package saccs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"saccs/internal/automaton"
	"saccs/internal/core"
	"saccs/internal/datasets"
	"saccs/internal/extcache"
	"saccs/internal/index"
	"saccs/internal/ingest"
	"saccs/internal/lexicon"
	"saccs/internal/nn"
	"saccs/internal/obs"
	"saccs/internal/search"
	"saccs/internal/sim"
	"saccs/internal/tagger"
	"saccs/internal/tokenize"
)

// Config tunes a Client.
//
// Numeric and boolean fields are taken literally: New applies no defaults, so
// ThetaIndex: 0 really means a zero similarity threshold and Epsilon: 0
// really means no adversarial perturbation. Start from DefaultConfig() and
// override the fields you care about. The string fields keep "" as an alias
// for their default ("restaurants", "fast", "mixed") so the zero Config
// still names a valid pipeline.
type Config struct {
	// Domain selects the lexicon the pipeline is trained for:
	// "restaurants" (the "" default), "electronics" or "hotels".
	Domain string
	// TrainingScale selects how much synthetic data the extractor is
	// trained on: "fast" (the "" default, seconds) or "paper" (Table 3
	// sizes).
	TrainingScale string
	// ThetaIndex is the Eq. 1 review-tag similarity threshold
	// (DefaultConfig: 0.55). 0 admits every review tag.
	ThetaIndex float64
	// ThetaFilter is the Algorithm 1 unknown-tag threshold
	// (DefaultConfig: 0.45). 0 unions every indexed tag.
	ThetaFilter float64
	// TopK truncates query answers (DefaultConfig: 10; 0 = all).
	TopK int
	// Adversarial enables FGSM training of the tagger (DefaultConfig: true).
	Adversarial bool
	// Epsilon is the adversarial perturbation radius (DefaultConfig: 0.2).
	// 0 trains on unperturbed embeddings even when Adversarial is set.
	Epsilon float64
	// HistoryLimit bounds the user tag history (the queue of unknown tags
	// awaiting the next Reindex round) to the N most recently seen tags,
	// evicting oldest-first — without it the history's memory grows without
	// limit over a long conversational session (DefaultConfig: 4096;
	// 0 = unbounded).
	HistoryLimit int
	// ExtractCacheSize bounds the extraction cache: a sharded map from
	// normalized token sequence to extracted tags, keyed by the tagger's
	// weight generation, that lets repeated sentences (recurring utterances,
	// duplicated review sentences during indexing) skip the neural decode
	// entirely. Entries stop matching the moment the tagger retrains, so a
	// cached answer is always bit-identical to a fresh decode
	// (DefaultConfig: 4096 entries; 0 disables caching).
	ExtractCacheSize int
	// TraceSampleN head-samples every Nth request for full span-tree
	// retention (1 retains every request, 0 disables head sampling). While
	// both TraceSampleN and SlowThreshold are 0 — the DefaultConfig — tail
	// sampling is off entirely: every request's spans reach the trace sink,
	// as in earlier releases.
	TraceSampleN int
	// SlowThreshold marks requests at or above this duration slow: their
	// span trees are retained regardless of sampling and they enter the
	// worst-K slow-query log (Stats().Slow, /debug/slow, saccs-chat :slow).
	// Setting it (or TraceSampleN) also arms the adaptive rule that retains
	// any request slower than the rolling p99. 0 disables the threshold.
	SlowThreshold time.Duration
	// SLOTarget is the query-latency service-level objective: queries at or
	// under it count good, the rest bad, feeding the
	// slo.requests.{good,bad}.total counters and the slo.error_budget.burn
	// gauge (bad fraction over the 1% error budget). 0 disables SLO
	// accounting.
	SLOTarget time.Duration
	// Precision selects the inference arithmetic of the utterance decode —
	// the latency-critical tagger forward behind Query, Chat, and
	// ExtractTags: "mixed" (the "" default) runs int8 GEMMs with float32
	// kernels for the drift-sensitive layers, and "float64" is the exact
	// reference arithmetic; anything else is rejected by New. Training and
	// review indexing (IndexEntities, AppendReview) always run float64 — the
	// index is a durable artifact and stays byte-identical across Precision
	// settings — and oracle/quant-drift bounds the mixed decode's divergence.
	Precision string
	// WALDir, when non-empty, makes streamed reviews durable: AppendReview
	// acknowledges only after the review is fsynced into a write-ahead log
	// under this directory, and New replays the log (checkpoint + WAL tail)
	// so a crash never loses an acknowledged review. "" keeps streaming
	// purely in memory — AppendReview still works, with no durability.
	WALDir string
	// IngestPublishEvery bounds staleness by count: streamed reviews are
	// folded into the published index after this many accumulate
	// (DefaultConfig: 64). 0 picks the engine default (also 64); negative
	// disables count-triggered publication (interval or Quiesce only).
	IngestPublishEvery int
	// IngestPublishInterval bounds staleness by time: a background tick
	// publishes any pending streamed reviews at least this often
	// (DefaultConfig: 250ms). 0 picks the engine default (250ms); negative
	// disables the ticker (count trigger or Quiesce only).
	IngestPublishInterval time.Duration
}

// DefaultConfig returns the recommended configuration.
func DefaultConfig() Config {
	return Config{
		Domain:           "restaurants",
		TrainingScale:    "fast",
		ThetaIndex:       core.ThetaIndex,
		ThetaFilter:      core.ThetaFilter,
		TopK:             10,
		Adversarial:      true,
		Epsilon:          0.2,
		HistoryLimit:     4096,
		ExtractCacheSize: 4096,
		Precision:        "mixed",

		IngestPublishEvery:    64,
		IngestPublishInterval: 250 * time.Millisecond,
	}
}

// QueryOptions overrides per-request query knobs. The zero value inherits
// everything from the client's Config; a non-nil field overrides just that
// knob for the one request, so callers never mutate the shared Config while
// queries are in flight.
type QueryOptions struct {
	// TopK, when non-nil, truncates this request's answer (0 = all).
	TopK *int
	// ThetaFilter, when non-nil, overrides the Algorithm 1 unknown-tag
	// similarity threshold for this request (0 unions every indexed tag).
	ThetaFilter *float64
}

// Int returns a pointer to v — a convenience for QueryOptions literals.
func Int(v int) *int { return &v }

// Float returns a pointer to v — a convenience for QueryOptions literals.
func Float(v float64) *float64 { return &v }

// StageError is the typed failure of a context-aware Client call: the
// pipeline stage that observed the cancellation or expired deadline plus the
// underlying context error. errors.Is sees through it to context.Canceled /
// context.DeadlineExceeded, and to ErrShutdown for a write refused after
// Shutdown. A call returning a StageError produced no partial results and
// published no partial state.
type StageError struct {
	// Stage names the pipeline stage that observed the failure: "parse",
	// "extract", "objective", "rank", "index", "reindex", "append", or
	// "register".
	Stage string
	// Err is the context's error (or a wrapper around it), ErrShutdown, or
	// the write path's own failure.
	Err error
}

// Error formats the failure as "saccs: <stage>: <cause>".
func (e *StageError) Error() string { return "saccs: " + e.Stage + ": " + e.Err.Error() }

// Unwrap exposes the underlying context error to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// ErrShutdown is why a write fails once the client is shut down: after
// Shutdown, AppendReview, RegisterEntity, IndexEntities and Reindex return a
// *StageError wrapping it, while queries keep answering over the index the
// client had.
var ErrShutdown = errors.New("client is shut down")

// Entity is a business (or any reviewable item) a Client can index.
type Entity struct {
	// ID must be unique within the client.
	ID string
	// Name is the display name.
	Name string
	// City and Cuisine are the objective slots the dialog layer filters on.
	City, Cuisine string
	// Reviews are free-text customer reviews.
	Reviews []string
}

// Result is one ranked answer.
type Result struct {
	ID string `json:"id"`
	// Score is the aggregated degree of truth across the query's tags.
	Score float64 `json:"score"`
}

// Response is the answer to a subjective utterance. The JSON field names are
// the saccs-server wire format.
type Response struct {
	// Intent is the recognized intent name.
	Intent string `json:"intent"`
	// Slots are the filled objective slots (cuisine, location).
	Slots map[string]string `json:"slots,omitempty"`
	// Tags are the subjective tags extracted from the utterance.
	Tags []string `json:"tags"`
	// UnknownTags were not in the index and are queued for the next
	// indexing round (see Client.Reindex).
	UnknownTags []string `json:"unknown_tags,omitempty"`
	// Results are the filtered, ranked entities.
	Results []Result `json:"results"`
}

// Client is a trained SACCS pipeline plus a subjective tag index.
//
// Concurrency: every exported method is safe from any number of goroutines.
// The query path is lock-free: each request pins the current immutable index
// snapshot once and reads only that generation end to end, so a query never
// mixes postings from before and after a rebuild and never blocks on a
// writer. Writers — IndexEntities, Reindex, LoadIndex — prepare their state
// off to the side and publish it with one atomic pointer swap; queries
// already in flight keep the generation they pinned, and the next request
// sees the new one. The extraction pipeline (MiniBERT forward pass,
// BiLSTM-CRF decode) is reentrant — per-call scratch arenas come from a
// sync.Pool, and repeated sentences are served from a sharded extraction
// cache keyed by the tagger's weight generation (Config.ExtractCacheSize).
// The cost of the design is memory, not latency: while a rebuild overlaps
// queries, up to two index generations are live at once.
type Client struct {
	cfg    Config
	domain *lexicon.Domain
	// extr is the serving extractor: utterance decodes run at the
	// configured Precision (quantized kernels by default). refExtr is the
	// indexing extractor: the same trained tagger pinned to the float64
	// reference arithmetic, with its own cache, so the index is a
	// precision-independent artifact — reviews extract to byte-identical
	// postings whatever Precision serves queries.
	extr    *core.Extractor
	refExtr *core.Extractor
	measure sim.Measure

	// w is the client's current world — entities, reviews, index, and tag
	// history published as one unit, so a query pinning it never
	// observes entities from one IndexEntities call and postings from
	// another. Readers only Load; writeMu serializes the writers that swap
	// it.
	w       atomic.Pointer[world]
	writeMu sync.Mutex

	// ing is the streaming ingester behind AppendReview. It is opened at
	// most once per client: by New when a WALDir is set (recovery runs
	// before any reader exists), otherwise by the first append. Guarded by
	// writeMu; the ingester is internally synchronized, and the lock order
	// is always writeMu → ingester, never the reverse.
	ing *ingest.Ingester
	// shut is set by Shutdown and never cleared: every write checks it
	// under writeMu and refuses with ErrShutdown.
	shut bool

	// o is the client's always-on metrics registry plus an optional tracer
	// attached via SetTraceSink.
	o *obs.Observer
}

// world is one generation of the client's indexed state. The slices are
// frozen once published; ix, history and cands mutate safely behind their
// own internal synchronization (the index republishes snapshots atomically,
// history is a locked queue, cands is swapped copy-on-write).
type world struct {
	// ents holds every entity in ascending ID order and ids their IDs in
	// parallel. The order is maintained where a world is rebuilt, not per
	// query: the objective filter is one linear pass whose output is already
	// the ID-sorted candidate set ranking wants, and ids itself is the
	// candidate set of a QueryTags.
	ents    []Entity
	ids     []string
	reviews []index.EntityReviews
	ix      *index.Index
	history *index.History
	// cands memoises the objective API's answers over ents, keyed by slot:
	// a copy-on-write map that queries read with one atomic load and that a
	// miss replaces by compare-and-swap, so no query takes a lock (see
	// world.candidates). Every new world starts with an empty memo.
	cands atomic.Pointer[map[candidateKey]*candidateSet]
}

// newWorld assembles a world over ents (distinct IDs, any order; the slice
// is taken over and sorted in place).
func newWorld(ents []Entity, reviews []index.EntityReviews, ix *index.Index, history *index.History) *world {
	slices.SortFunc(ents, func(a, b Entity) int { return strings.Compare(a.ID, b.ID) })
	ids := make([]string, len(ents))
	for i, e := range ents {
		ids[i] = e.ID
	}
	return &world{ents: ents, ids: ids, reviews: reviews, ix: ix, history: history}
}

// entity looks an entity up by ID.
func (w *world) entity(id string) (Entity, bool) {
	i, ok := slices.BinarySearch(w.ids, id)
	if !ok {
		return Entity{}, false
	}
	return w.ents[i], true
}

// withEntity returns a copy of w in which e replaces the entity of the same
// ID, or is inserted at its place in the order when there is none.
func (w *world) withEntity(e Entity) *world {
	ents, ids := w.ents, w.ids
	i, known := slices.BinarySearch(ids, e.ID)
	if known {
		ents = slices.Clone(ents)
		ents[i] = e
	} else {
		ents = slices.Insert(slices.Clip(ents), i, e)
		ids = slices.Insert(slices.Clip(ids), i, e.ID)
	}
	return &world{ents: ents, ids: ids, reviews: w.reviews, ix: w.ix, history: w.history}
}

// candidateKey is one question to the objective API: the cuisine and
// location slots search.ParseUtterance filled, "" for a slot it left empty.
// Both slots come from fixed vocabularies, so a world sees at most
// (cuisines+1) × (locations+1) keys.
type candidateKey struct{ cuisine, location string }

// candidateSet is one key's answer over one world: the matching IDs in
// ascending order, fixed for the world's lifetime, and those IDs resolved
// against the newest index generation any query has ranked them in.
type candidateSet struct {
	ids    []string
	latest atomic.Pointer[search.Candidates]
}

// candidates answers the objective API for slots over w, numbered for snap
// (which must be a snapshot of w.ix). The first query of a world under a key
// runs the linear filter and the first of a generation resolves its IDs'
// ordinals; every other query reuses both.
func (w *world) candidates(slots map[string]string, snap *index.Snapshot) search.Candidates {
	key := candidateKey{cuisine: slots[search.SlotCuisine], location: slots[search.SlotLocation]}
	for {
		cur := w.cands.Load()
		var sets map[candidateKey]*candidateSet
		if cur != nil {
			sets = *cur
		}
		if set, ok := sets[key]; ok {
			return set.at(snap)
		}
		next := make(map[candidateKey]*candidateSet, len(sets)+1)
		maps.Copy(next, sets)
		next[key] = &candidateSet{ids: objectiveFilter(w, key)}
		// Won or lost, the next pass finds the key unless a racing miss
		// for another key swapped first.
		w.cands.CompareAndSwap(cur, &next)
	}
}

// at returns the set's IDs resolved against snap, resolving them only when
// no query has yet done so in snap's generation. Only a newer generation
// replaces the memoised one, so a query still ranking an older snapshot
// cannot evict the ordinals current queries need.
func (s *candidateSet) at(snap *index.Snapshot) search.Candidates {
	gen := snap.Generation()
	cur := s.latest.Load()
	if cur != nil && cur.Generation() == gen {
		return *cur
	}
	next := search.NewCandidates(snap, s.ids)
	for (cur == nil || cur.Generation() < gen) && !s.latest.CompareAndSwap(cur, &next) {
		cur = s.latest.Load()
	}
	return next
}

// New trains a SACCS extraction pipeline (MiniBERT masked-language-model
// pre-training plus an adversarially trained BiLSTM-CRF tagger) on synthetic
// in-domain data and returns a ready Client. Training is deterministic and
// CPU-only; the fast scale takes seconds.
func New(cfg Config) (*Client, error) {
	var domain *lexicon.Domain
	var data *datasets.Dataset
	scale := datasets.Fast
	if cfg.TrainingScale == "paper" {
		scale = datasets.Paper
	}
	switch cfg.Domain {
	case "", "restaurants":
		domain = lexicon.Restaurants()
		data = datasets.S1(scale)
	case "electronics":
		domain = lexicon.Electronics()
		data = datasets.S2(scale)
	case "hotels":
		domain = lexicon.Hotels()
		data = datasets.S4(scale)
	default:
		return nil, fmt.Errorf("saccs: unknown domain %q", cfg.Domain)
	}
	precision, err := nn.ParsePrecision(cfg.Precision)
	if err != nil {
		return nil, fmt.Errorf("saccs: %w", err)
	}

	o := obs.NewObserver()
	o.SetTelemetry(obs.NewTelemetry(obs.TelemetryConfig{
		Metrics:       o.Metrics,
		HeadSampleN:   cfg.TraceSampleN,
		SlowThreshold: cfg.SlowThreshold,
		SLOTarget:     cfg.SLOTarget,
	}))
	tg := core.TrainTagger(domain, data, scale, cfg.Adversarial, cfg.Epsilon, precision, o)

	measure := sim.NewConceptual()
	hist := index.NewHistory()
	hist.SetCap(cfg.HistoryLimit)
	cache := extcache.New(cfg.ExtractCacheSize)
	cache.SetObserver(o)
	pairer := core.ServedPairer(domain)
	// Index builds extract through a float64-pinned view of the same trained
	// tagger, with a separate cache (entries must be bit-identical to a fresh
	// decode at the extractor's own precision, so the two modes never share
	// one).
	refCache := extcache.New(cfg.ExtractCacheSize)
	refCache.SetObserver(o)
	c := &Client{
		cfg:    cfg,
		domain: domain,
		extr: &core.Extractor{
			Tagger: tg,
			Pairer: pairer,
			Cache:  cache,
			Obs:    o,
		},
		refExtr: &core.Extractor{
			Tagger: tagger.ReferenceView{M: tg},
			Pairer: pairer,
			Cache:  refCache,
			Obs:    o,
		},
		measure: measure,
		o:       o,
	}
	c.w.Store(&world{ix: c.newIndex(), history: hist})
	// A durable WAL directory is opened eagerly so a restart recovers its
	// streamed world (checkpoint + WAL replay) before the first call — not
	// only once somebody happens to append.
	if cfg.WALDir != "" {
		c.writeMu.Lock()
		err := c.openIngestLocked()
		c.writeMu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("saccs: recovering ingest state: %w", err)
		}
	}
	return c, nil
}

// newIndex builds an empty subjective tag index wired into the client's
// observer.
func (c *Client) newIndex() *index.Index {
	ix := index.New(c.measure, c.cfg.ThetaIndex)
	ix.SetObserver(c.o)
	return ix
}

// ExtractTags runs the §4+§5 pipeline on free text and returns its
// subjective tags. It is reentrant.
func (c *Client) ExtractTags(text string) []string {
	tags, _ := c.ExtractTagsCtx(context.Background(), text)
	return tags
}

// ExtractTagsCtx is ExtractTags with cooperative cancellation (polled
// between sentences) and request telemetry: each call is one "extract"
// request with its own trace ID and wide event. On cancellation it returns a
// *StageError wrapping ctx's error and no partial tag list.
func (c *Client) ExtractTagsCtx(ctx context.Context, text string) ([]string, error) {
	ctx, req := c.o.StartRequest(ctx, "extract")
	req.Ev.UtteranceLen = len(text)
	tags, err := c.extr.ExtractTagsCtx(ctx, req.Root(), text)
	if err != nil {
		serr := &StageError{Stage: "extract", Err: err}
		req.Finish(serr)
		return nil, serr
	}
	req.Ev.Tags = len(tags)
	req.Finish(nil)
	return tags, nil
}

// CanonicalTags returns the domain's built-in subjective feature tags —
// a convenient starter set for IndexEntities.
func (c *Client) CanonicalTags() []string { return core.CanonicalTags(c.domain) }

// IndexEntities extracts subjective tags from every entity's reviews and
// builds the inverted index for the given tag set. Extraction runs through
// core.EntityReviews, fanned out per entity across GOMAXPROCS goroutines
// (the pipeline is reentrant), and the build fans out per tag; results are
// merged in input order, so the index is identical for any degree of
// parallelism. Calling IndexEntities again
// builds a complete replacement world off to the side and publishes it
// atomically — queries already in flight finish against the old index, the
// next query sees the new one.
func (c *Client) IndexEntities(entities []Entity, tags []string) error {
	return c.IndexEntitiesCtx(context.Background(), entities, tags)
}

// IndexEntitiesCtx is IndexEntities with cooperative cancellation: the
// context is polled between entities during extraction and inside the index
// build. On cancellation it returns a *StageError wrapping ctx's error and
// publishes nothing — the client keeps serving its previous index.
func (c *Client) IndexEntitiesCtx(ctx context.Context, entities []Entity, tags []string) error {
	seen := make(map[string]bool, len(entities))
	ids := make([]string, len(entities))
	texts := make([][]string, len(entities))
	for i, e := range entities {
		if e.ID == "" {
			return fmt.Errorf("saccs: entity with empty ID")
		}
		if seen[e.ID] {
			return fmt.Errorf("saccs: duplicate entity ID %q", e.ID)
		}
		seen[e.ID] = true
		ids[i], texts[i] = e.ID, e.Reviews
	}
	reviews, err := core.EntityReviews(ctx, ids, texts, c.refExtr.ExtractTags)
	if err != nil {
		return &StageError{Stage: "extract", Err: err}
	}
	ix := c.newIndex()
	low := make([]string, len(tags))
	for i, t := range tags {
		low[i] = strings.ToLower(t)
	}
	if err := ix.BuildCtx(ctx, low, reviews); err != nil {
		return &StageError{Stage: "index", Err: err}
	}
	hist := index.NewHistory()
	hist.SetCap(c.cfg.HistoryLimit)
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.shut {
		return &StageError{Stage: "index", Err: ErrShutdown}
	}
	w := newWorld(slices.Clone(entities), reviews, ix, hist)
	c.w.Store(w)
	if c.ing != nil {
		// The batch world supersedes the streamed one: rebase the ingester on
		// the fresh index (checkpointing entity metadata and truncating the
		// WAL behind it) so future appends continue from here.
		if err := c.ing.Rebase(ix, low, reviews, entityMeta(w.ents)); err != nil {
			return &StageError{Stage: "index", Err: err}
		}
	}
	return nil
}

// entityMeta collects the non-empty entity metadata in the shape the
// ingester persists (checkpoint meta / WAL metadata records); nil when there
// is none.
func entityMeta(entities []Entity) map[string]ingest.EntityMeta {
	var out map[string]ingest.EntityMeta
	for _, e := range entities {
		m := ingest.EntityMeta{Name: e.Name, City: e.City, Cuisine: e.Cuisine}
		if m == (ingest.EntityMeta{}) {
			continue
		}
		if out == nil {
			out = map[string]ingest.EntityMeta{}
		}
		out[e.ID] = m
	}
	return out
}

// AppendReview streams one review into an entity's record: the review is
// made durable (fsynced into the WAL when Config.WALDir is set) before the
// call returns, its tags are extracted in the background, and the published
// index absorbs it within the bounded-staleness window
// (Config.IngestPublishEvery reviews or Config.IngestPublishInterval,
// whichever comes first). An unknown entity ID is registered as a stub
// entity visible to objective filtering; review text is not retained in the
// entity's Reviews.
//
// Queries racing an append keep the lock-free snapshot contract: a reader
// sees either the generation before the fold or after it — never a torn
// one — and each published generation reflects a strict prefix of the
// append order.
func (c *Client) AppendReview(entityID, review string) error {
	return c.AppendReviewCtx(context.Background(), entityID, review)
}

// AppendReviewCtx is AppendReview with request telemetry (one "append"
// request per call) and cooperative cancellation of the publish that may
// piggyback on this append. The durability acknowledgment itself is not
// cancellable: once the call returns nil the review is on disk.
func (c *Client) AppendReviewCtx(ctx context.Context, entityID, review string) error {
	ctx, req := c.o.StartRequest(ctx, "append")
	req.Ev.UtteranceLen = len(review)
	fail := func(err error) error {
		serr := &StageError{Stage: "append", Err: err}
		req.Finish(serr)
		return serr
	}
	if entityID == "" {
		return fail(fmt.Errorf("empty entity ID"))
	}
	c.writeMu.Lock()
	if c.shut {
		c.writeMu.Unlock()
		return fail(ErrShutdown)
	}
	if c.ing == nil {
		if err := c.openIngestLocked(); err != nil {
			c.writeMu.Unlock()
			return fail(err)
		}
	}
	// Register the entity stub before the append is durable: a review must
	// never be acknowledged for an entity queries cannot see.
	w := c.w.Load()
	_, known := w.entity(entityID)
	if !known {
		c.w.Store(w.withEntity(Entity{ID: entityID}))
	}
	_, err := c.ing.Append(ctx, entityID, review)
	if err != nil && !known {
		// The append was refused, so no review exists for the stub: roll
		// the world back rather than leave a phantom entity visible to
		// queries. Safe under writeMu — every world store holds it, so
		// nothing can have interleaved.
		c.w.Store(w)
	}
	c.writeMu.Unlock()
	if err != nil {
		return fail(err)
	}
	req.Finish(nil)
	return nil
}

// RegisterEntity upserts an entity's objective metadata (Name, City,
// Cuisine) without touching its reviews: the entity becomes visible to
// objective filtering immediately, and when the client streams through a
// durable WAL the metadata is fsynced as its own WAL record before the call
// returns — so a crash-recovered entity keeps its identity instead of
// degrading to a bare-ID stub. Reviews stream separately via AppendReview.
func (c *Client) RegisterEntity(e Entity) error {
	return c.RegisterEntityCtx(context.Background(), e)
}

// RegisterEntityCtx is RegisterEntity with request telemetry (one "register"
// request per call). Like AppendReviewCtx, the durability acknowledgment is
// not cancellable: once the call returns nil the metadata is on disk.
func (c *Client) RegisterEntityCtx(ctx context.Context, e Entity) error {
	ctx, req := c.o.StartRequest(ctx, "register")
	fail := func(err error) error {
		serr := &StageError{Stage: "register", Err: err}
		req.Finish(serr)
		return serr
	}
	if e.ID == "" {
		return fail(fmt.Errorf("empty entity ID"))
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.shut {
		return fail(ErrShutdown)
	}
	w := c.w.Load()
	// Durability first: only a metadata record the WAL acknowledged may
	// become visible to queries.
	if c.ing != nil {
		m := ingest.EntityMeta{Name: e.Name, City: e.City, Cuisine: e.Cuisine}
		if _, err := c.ing.PutMeta(ctx, e.ID, m); err != nil {
			return fail(err)
		}
	}
	cur, known := w.entity(e.ID)
	up := Entity{ID: e.ID, Name: e.Name, City: e.City, Cuisine: e.Cuisine, Reviews: cur.Reviews}
	if !known || cur.Name != up.Name || cur.City != up.City || cur.Cuisine != up.Cuisine {
		c.w.Store(w.withEntity(up))
	}
	req.Finish(nil)
	return nil
}

// Quiesce publishes every streamed review that is still pending, so the
// index reflects all acknowledged appends. It is the streaming counterpart
// of waiting out the staleness window — tests and graceful drains call it
// instead of sleeping.
func (c *Client) Quiesce() error {
	c.writeMu.Lock()
	ing := c.ing
	c.writeMu.Unlock()
	if ing == nil {
		return nil
	}
	return ing.Flush(context.Background())
}

// openIngestLocked opens the streaming ingester over the current world,
// seeding it with the batch-extracted reviews so streamed appends land on
// top of the indexed corpus. With a WALDir it first recovers any durable
// state — recovered entities come back with their persisted metadata, or as
// bare-ID stubs when none was ever written. It runs at most once per client,
// before Shutdown (see Client.ing). Caller holds writeMu.
func (c *Client) openIngestLocked() error {
	if err := refuseShardedWAL(c.cfg.WALDir); err != nil {
		return err
	}
	w := c.w.Load()
	ing, err := ingest.Open(ingest.Config{
		Dir:             c.cfg.WALDir,
		PublishEvery:    c.cfg.IngestPublishEvery,
		PublishInterval: c.cfg.IngestPublishInterval,
		Obs:             c.o,
	}, w.ix, w.ix.Tags(), w.reviews, c.extractReviewTags)
	if err != nil {
		return err
	}
	// Known metadata rides along in memory so a later Rebase checkpoint
	// carries it; recovery below pulls the opposite direction.
	if meta := entityMeta(w.ents); meta != nil {
		ing.SeedMeta(meta)
	}
	c.ing = ing
	// Recovery can resurface entities the in-memory world has never seen
	// (their reviews or metadata arrived through the WAL in a previous
	// process): rebuild each with its persisted identity, or a stub when
	// only reviews survived.
	var recovered []Entity
	seen := map[string]bool{}
	resurface := func(id string, m ingest.EntityMeta) {
		if _, known := w.entity(id); !known && !seen[id] {
			seen[id] = true
			recovered = append(recovered, Entity{ID: id, Name: m.Name, City: m.City, Cuisine: m.Cuisine})
		}
	}
	meta := ing.Meta()
	for _, er := range ing.State() {
		resurface(er.EntityID, meta[er.EntityID])
	}
	for id, m := range meta {
		resurface(id, m)
	}
	if len(recovered) > 0 {
		c.w.Store(newWorld(append(slices.Clip(w.ents), recovered...), w.reviews, w.ix, w.history))
	}
	return nil
}

// refuseShardedWAL fails when dir holds shard-<i> subdirectories: the
// per-shard layout of a client that partitioned its index. Recovery reads
// only the flat layout, so opening such a directory would silently drop
// every review acknowledged under them.
func refuseShardedWAL(dir string) error {
	if dir == "" {
		return nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	var sharded []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "shard-") {
			sharded = append(sharded, e.Name())
		}
	}
	if len(sharded) > 0 {
		return fmt.Errorf("WAL directory %s holds per-shard logs (%s) written by a sharded client; only the flat layout is recovered", dir, strings.Join(sharded, ", "))
	}
	return nil
}

// extractReviewTags is the ingester's extraction hook: per review it runs
// exactly what the batch IndexEntities path runs (the reference extractor's
// ExtractTags, which dedupes across a review's sentences), so a streamed
// world and a batch world extract identically — at the float64 reference
// precision, independent of the serving Precision.
func (c *Client) extractReviewTags(texts []string) [][]string {
	out := make([][]string, len(texts))
	for i, t := range texts {
		out[i] = c.refExtr.ExtractTags(t)
	}
	return out
}

// IndexedTags returns the current index keys.
func (c *Client) IndexedTags() []string { return c.w.Load().ix.Tags() }

// Reindex drains the user tag history (unknown tags seen in queries) into
// the index — the adaptive round of the paper's Fig. 1 — and returns the
// tags added. The new tags are indexed over every review the client holds,
// streamed appends included (pending ones are published first), exactly as
// a batch build with those tags would index them. It fans out across the
// index's worker pool; queries in flight
// keep their pinned snapshot and later queries see the extended index.
func (c *Client) Reindex() []string {
	tags, _ := c.ReindexCtx(context.Background())
	return tags
}

// ReindexCtx is Reindex with cooperative cancellation. On cancellation the
// drained tags are requeued onto the history (nothing is lost, nothing is
// published) and the error is a *StageError wrapping ctx's error.
func (c *Client) ReindexCtx(ctx context.Context) ([]string, error) {
	ctx, req := c.o.StartRequest(ctx, "reindex")
	fail := func(err error) ([]string, error) {
		serr := &StageError{Stage: "reindex", Err: err}
		req.Finish(serr)
		return nil, serr
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	if c.shut {
		return fail(ErrShutdown)
	}
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	w := c.w.Load()
	pend := w.history.Drain()
	if len(pend) == 0 {
		req.Finish(nil)
		return nil, nil
	}
	st := obs.BeginStage(c.o, req.Root(), "history.drain")
	st.Span().Set("pending", len(pend))
	st.End()
	// The new tags cover every review the index holds. Once streaming has
	// started that is the ingester's state — seeded with the batch reviews,
	// grown by every append — and not w.reviews, which only holds the last
	// IndexEntities batch. Flushing first publishes every acknowledged append,
	// so the old and new tags cover the same reviews; writeMu keeps new
	// appends out until AddTags below widens the stream's vocabulary.
	reviews := w.reviews
	if c.ing != nil {
		if err := c.ing.Flush(ctx); err != nil {
			w.history.Requeue(pend)
			return fail(err)
		}
		reviews = c.ing.State()
	}
	if err := w.ix.BuildCtx(ctx, pend, reviews); err != nil {
		w.history.Requeue(pend)
		return fail(err)
	}
	if c.ing != nil {
		// Widen the streaming vocabulary too, so future delta publications
		// cover the tags just reindexed (durably, when a WALDir is set).
		if err := c.ing.AddTags(pend); err != nil {
			return fail(err)
		}
	}
	req.Ev.Tags = len(pend)
	req.Ev.Generation = w.ix.Current().Generation()
	req.Finish(nil)
	return pend, nil
}

// Query answers a natural-language utterance: intent recognition and slot
// filling, subjective tag extraction, index probing (similar-tag union for
// unknown tags), and Algorithm 1 filtering & ranking over the indexed
// entities.
//
// Every call updates the client's metrics (see Stats); with a trace sink
// attached (SetTraceSink) it also produces one root "query" span whose
// children time each pipeline stage: parse → tagger.decode → pairing.pairs
// → objective → rank (with per-tag index.resolve spans under rank).
func (c *Client) Query(utterance string) Response {
	resp, _ := c.QueryCtx(context.Background(), utterance)
	return resp
}

// QueryCtx is Query with cooperative cancellation and per-request options.
// The context is polled at every stage boundary (parse → extract →
// objective → rank) and periodically inside the tagger decode loop and the
// rank stage's per-tag similarity scans, so an expired deadline is observed
// mid-rank rather than after the full scan. A cancelled or expired context
// returns a zero Response and a *StageError naming the stage that observed
// it — never partial results. The root "query" span is annotated with a
// cancelled/deadline status and the query.interrupted.total counter ticks.
//
// The current index snapshot is pinned once, up front: the whole request —
// unknown-tag checks and ranking alike — reads one immutable index
// generation even while Reindex or IndexEntities publishes a new one
// mid-flight. An optional QueryOptions overrides TopK and ThetaFilter for
// this request only.
func (c *Client) QueryCtx(ctx context.Context, utterance string, opts ...QueryOptions) (Response, error) {
	t0 := time.Now()
	topK, theta := c.cfg.TopK, c.cfg.ThetaFilter
	if len(opts) > 0 {
		if opts[0].TopK != nil {
			topK = *opts[0].TopK
		}
		if opts[0].ThetaFilter != nil {
			theta = *opts[0].ThetaFilter
		}
	}
	ctx, req := c.o.StartRequest(ctx, "query")
	root := req.Root().Set("utterance_len", len(utterance))
	req.Ev.UtteranceLen = len(utterance)
	if len(opts) > 0 {
		req.Ev.TopK, req.Ev.ThetaFilter = opts[0].TopK, opts[0].ThetaFilter
	}
	w := c.w.Load()
	// Pin the index snapshot once, up front: the whole request reads one
	// immutable generation even while writers republish underneath it.
	snap := w.ix.Current()
	req.Ev.Generation = snap.Generation()
	fail := func(stage string, err error) (Response, error) {
		c.o.Counter("query.interrupted.total").Inc()
		serr := &StageError{Stage: stage, Err: err}
		req.Finish(serr)
		return Response{}, serr
	}

	if err := ctx.Err(); err != nil {
		return fail("parse", err)
	}
	st := obs.BeginStage(c.o, root, "parse")
	in := parseIntentSlots(utterance)
	st.End()

	tags, err := c.extr.ExtractTagsCtx(ctx, root, utterance)
	if err != nil {
		return fail("extract", err)
	}

	var unknown []string
	for _, t := range tags {
		if !snap.Has(t) {
			unknown = append(unknown, t)
			w.history.Add(t)
		}
	}

	if err := ctx.Err(); err != nil {
		return fail("objective", err)
	}
	st = obs.BeginStage(c.o, root, "objective")
	cands := w.candidates(in.slots, snap)
	st.Span().Set("results", cands.Len())
	st.End()

	st = obs.BeginStage(c.o, root, "rank")
	rk := search.Ranker{Snap: snap, ThetaFilter: theta, Agg: search.MeanAgg}
	ranked, err := rk.TopK(ctx, st.Span(), cands, tags, topK)
	if err != nil {
		st.EndErr(err)
		return fail("rank", err)
	}
	st.End()
	results := make([]Result, len(ranked))
	for i, s := range ranked {
		results[i] = Result{ID: s.EntityID, Score: s.Score}
	}

	c.o.Counter("query.total").Inc()
	c.o.Counter("query.unknown_tags.total").Add(int64(len(unknown)))
	c.o.Histogram("query.latency").ObserveSince(t0)
	root.Set("tags", len(tags)).Set("unknown", len(unknown)).Set("results", len(results))
	req.Ev.Tags, req.Ev.Unknown, req.Ev.Results = len(tags), len(unknown), len(results)
	req.Finish(nil)
	return Response{
		Intent:      in.name,
		Slots:       in.slots,
		Tags:        tags,
		UnknownTags: unknown,
		Results:     results,
	}, nil
}

// QueryTags answers a query given directly as subjective tags (no dialog
// parsing), ranking all indexed entities.
func (c *Client) QueryTags(tags []string) []Result {
	out, _ := c.QueryTagsCtx(context.Background(), tags)
	return out
}

// QueryTagsCtx is QueryTags with cooperative cancellation and per-request
// options, under the same contract as QueryCtx: one pinned index snapshot,
// a *StageError and no partial results on cancellation.
func (c *Client) QueryTagsCtx(ctx context.Context, tags []string, opts ...QueryOptions) ([]Result, error) {
	t0 := time.Now()
	topK, theta := c.cfg.TopK, c.cfg.ThetaFilter
	if len(opts) > 0 {
		if opts[0].TopK != nil {
			topK = *opts[0].TopK
		}
		if opts[0].ThetaFilter != nil {
			theta = *opts[0].ThetaFilter
		}
	}
	w := c.w.Load()
	snap := w.ix.Current()
	low := make([]string, len(tags))
	for i, t := range tags {
		low[i] = strings.ToLower(t)
		if !snap.Has(low[i]) {
			w.history.Add(low[i])
		}
	}
	rk := search.Ranker{Snap: snap, ThetaFilter: theta, Agg: search.MeanAgg}
	ranked, err := rk.TopK(ctx, nil, w.candidates(nil, snap), low, topK)
	if err != nil {
		c.o.Counter("query.interrupted.total").Inc()
		return nil, &StageError{Stage: "rank", Err: err}
	}
	out := make([]Result, len(ranked))
	for i, s := range ranked {
		out[i] = Result{ID: s.EntityID, Score: s.Score}
	}
	c.o.Counter("query.tags.total").Inc()
	c.o.Histogram("query.latency").ObserveSince(t0)
	return out, nil
}

// Entity returns an indexed entity by id.
func (c *Client) Entity(id string) (Entity, bool) {
	return c.w.Load().entity(id)
}

// TagLabels tags each token of a sentence with its IOB aspect/opinion class
// — the raw §4 view, useful for inspection and debugging.
func (c *Client) TagLabels(sentence string) (tokens []string, labels []string) {
	tokens = tokenize.Words(sentence)
	for _, l := range c.extr.Tagger.Predict(tokens) {
		labels = append(labels, l.String())
	}
	return tokens, labels
}

// --- observability ----------------------------------------------------------

// Stats snapshots the client's runtime metrics: query counters, per-stage
// latency histograms (stage.parse, stage.tagger.decode, stage.pairing.pairs,
// stage.objective, stage.rank) and per-request-kind ones
// (Snapshot.Histograms["request.latency.query"].Quantile for p50/p99/p999,
// within 1/32 of the true value), the worst-K slow-query log (Snapshot.Slow,
// slowest first), index build/resolve instruments, SLO counters when Config.SLOTarget is
// set, and the training gauges recorded while New trained the pipeline.
// Metrics are always on; their cost is a few atomic operations per query.
func (c *Client) Stats() obs.Snapshot { return c.o.Snapshot() }

// Events returns the most recent wide events, oldest first: one structured
// record per finished request (trace ID, per-stage durations, index
// generation, cache hits, result counts, status, sampling verdict).
func (c *Client) Events() []obs.Event { return c.o.Telemetry().Events() }

// SlowQueries returns the worst-K slow or errored requests, slowest first —
// the same log Stats().Slow, the /debug/slow endpoint, and saccs-chat's
// :slow command expose.
func (c *Client) SlowQueries() []obs.Event { return c.o.Telemetry().SlowQueries() }

// Shutdown marks the client not-ready (the /readyz endpoint turns 503),
// stops background telemetry, and seals the write side for good: pending
// streamed reviews are published, the WAL is closed cleanly, and every later
// AppendReview, RegisterEntity, IndexEntities or Reindex returns a
// *StageError wrapping ErrShutdown. The client still answers queries over
// the index it had — shutdown only signals orchestrators to drain traffic.
// To write again, start a new client: with Config.WALDir set, New recovers
// exactly the world this one acknowledged. Safe to call more than once.
func (c *Client) Shutdown() {
	c.writeMu.Lock()
	ing := c.ing
	c.ing = nil
	c.shut = true
	c.writeMu.Unlock()
	if ing != nil {
		_ = ing.Close()
	}
	c.o.Telemetry().Close()
}

// SetTraceSink enables span tracing into sink (for example
// NewRingSink(512) or NewJSONLSink(file)); a nil sink disables
// tracing again. Disabled tracing costs nothing on the query path. The sink
// swap is atomic and may happen while queries are in flight.
func (c *Client) SetTraceSink(sink obs.SpanSink) {
	c.o.SetTracer(obs.NewTracer(sink))
}

// Observer exposes the client's observability handle — useful to serve the
// metrics registry over HTTP (obs.ServeObserver) or attach custom
// instruments.
func (c *Client) Observer() *obs.Observer { return c.o }

// ServeMetrics starts an HTTP server exposing the client's observability
// surface: /metrics (Prometheus text, including the request-latency
// summaries and SLO series), /healthz (liveness — 200 whenever the process
// serves HTTP), /readyz (readiness — 200 only between the first index
// publication and Shutdown), /debug/slow (the worst-K slow-query log as
// JSON), and the pprof handlers under /debug/pprof.
//
// Lifecycle: the listener is opened synchronously — when ServeMetrics
// returns nil error the endpoint is already accepting connections, and the
// returned server's Addr holds the resolved bound address (so addr may use
// ":0" to pick a free port). The caller owns the returned server: stop it
// with Shutdown (graceful) or Close. If the listener cannot be opened — a
// malformed address, or the port still held by an earlier ServeMetrics that
// hasn't been shut down — the error is returned immediately and nothing is
// leaked. After a shutdown, ServeMetrics may be called again, including on
// the same address; each call serves the same live registry, so multiple
// concurrent servers on different ports are also fine.
func (c *Client) ServeMetrics(addr string) (*http.Server, error) {
	return obs.ServeObserver(addr, c.o)
}

// The observability vocabulary is re-exported as aliases so module
// consumers can use Stats/SetTraceSink without importing the internal obs
// package (which the compiler forbids outside this module).
type (
	// Snapshot is a point-in-time copy of the metrics registry (plus the
	// slow-query log).
	Snapshot = obs.Snapshot
	// SpanSink receives finished trace spans.
	SpanSink = obs.SpanSink
	// SpanRecord is one finished span: trace ID, span ID, parent, name,
	// start, duration, and key/value attributes.
	SpanRecord = obs.SpanRecord
	// RingSink is a fixed-capacity in-memory span sink.
	RingSink = obs.Ring[obs.SpanRecord]
	// Event is one wide event: the canonical structured record of a finished
	// request.
	Event = obs.Event
	// TraceID is the 128-bit per-request identity stamped on spans and
	// events, rendered as 32 hex digits.
	TraceID = obs.TraceID
	// Trace is a request's trace identity (trace ID, span ID, sampled flag)
	// as carried through context.Context and W3C traceparent strings.
	Trace = obs.Trace
)

// ContextWithTrace returns a context carrying tr; Client requests started
// under it join the trace (same trace ID, propagated sampling decision)
// instead of minting a new one — the cross-process propagation hook.
func ContextWithTrace(ctx context.Context, tr Trace) context.Context {
	return obs.ContextWithTrace(ctx, tr)
}

// TraceFrom returns the trace carried by ctx, if any. Inside a request (the
// context handed to stage callbacks) it reports the request's own identity.
func TraceFrom(ctx context.Context) (Trace, bool) { return obs.TraceFrom(ctx) }

// ParseTraceparent parses a W3C traceparent header ("00-<trace>-<span>-<flags>").
func ParseTraceparent(s string) (Trace, error) { return obs.ParseTraceparent(s) }

// NewRingSink returns an in-memory sink holding the last capacity spans.
func NewRingSink(capacity int) *RingSink { return obs.NewRing[obs.SpanRecord](capacity) }

// NewJSONLSink returns a sink writing one JSON object per span to w.
func NewJSONLSink(w io.Writer) SpanSink { return obs.NewJSONL[obs.SpanRecord](w) }

// LastRootSpan returns the most recently finished root span among spans.
func LastRootSpan(spans []SpanRecord) (SpanRecord, bool) { return obs.LastRoot(spans) }

// SpanSubtree filters spans down to root's subtree (root included).
func SpanSubtree(spans []SpanRecord, root uint64) []SpanRecord { return obs.Subtree(spans, root) }

// WriteSpanTree renders spans as an indented tree with durations and attrs.
func WriteSpanTree(w io.Writer, spans []SpanRecord) { obs.WriteTree(w, spans) }

// --- small internal helpers -------------------------------------------------

type intentView struct {
	name  string
	slots map[string]string
}

func parseIntentSlots(utterance string) intentView {
	// Reuse the dialog shim's keyword intent recognition and slot filling.
	in := search.ParseUtterance(utterance)
	return intentView{name: in.Name, slots: in.Slots}
}

// objectiveFilter plays the §3.2 objective API over one world: one linear
// pass matching each filled slot case-insensitively. The result is in
// ascending ID order and must not be written to: with no slot to filter on
// it is the world's own ID list. Queries reach it through world.candidates,
// once per world and key.
func objectiveFilter(w *world, key candidateKey) []string {
	if key == (candidateKey{}) {
		return w.ids
	}
	var out []string
	for i := range w.ents {
		e := &w.ents[i]
		if key.cuisine != "" && !strings.EqualFold(e.Cuisine, key.cuisine) {
			continue
		}
		if key.location != "" && !strings.EqualFold(e.City, key.location) {
			continue
		}
		out = append(out, e.ID)
	}
	return out
}

// SaveIndex writes the current subjective tag index as JSON so it can be
// reloaded without re-extracting reviews. It serializes the snapshot
// current at the moment of the call, unaffected by concurrent rebuilds.
func (c *Client) SaveIndex(w io.Writer) error { return c.w.Load().ix.Save(w) }

// LoadIndex restores a previously saved index. The loaded postings are
// validated fully before anything is published, then swapped in atomically;
// on error the client keeps serving its previous index. The client's
// entities must be re-registered separately, with RegisterEntity: it
// records their objective metadata and leaves the loaded postings alone.
// IndexEntities would not do — it builds a fresh index and drops what was
// loaded.
func (c *Client) LoadIndex(r io.Reader) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.w.Load().ix.Load(r)
}

// CorrectTag routes a possibly misspelled tag onto the closest indexed tag
// within edit distance 2, using the §7 search-automaton extension. It
// returns the input unchanged when nothing is close enough.
func (c *Client) CorrectTag(tag string) string {
	trie := automaton.New()
	c.w.Load().ix.EachTag(func(t string) bool { trie.Add(t); return true })
	if fixed, ok := trie.Closest(strings.ToLower(tag), 2); ok {
		return fixed
	}
	return tag
}
