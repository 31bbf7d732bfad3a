package ingest

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"saccs/internal/index"
	"saccs/internal/obs"
)

// Config wires an Ingester.
type Config struct {
	// FS is the filesystem seam (nil → OSFS). Only consulted when Dir is
	// set.
	FS FS
	// Dir is the durability directory: WAL segments and entity-state
	// checkpoints live here, and nothing else. Empty disables durability —
	// appends still flow into the index with bounded staleness, but nothing
	// survives a restart.
	Dir string
	// SegmentBytes rotates WAL segments (default 1 MiB).
	SegmentBytes int
	// PublishEvery bounds staleness by count: a publication runs once this
	// many reviews are pending (default 64; negative disables the count
	// trigger).
	PublishEvery int
	// PublishInterval bounds staleness by time: a background ticker
	// publishes any pending reviews at least this often. 0 picks the 250ms
	// default — even when the count trigger is disabled, so appends never
	// silently stall; negative disables the ticker (Flush and PublishEvery
	// still publish).
	PublishInterval time.Duration
	// CompactAfter compacts after this many publications: the entity state
	// is checkpointed and the WAL it covers truncated (default 8; negative
	// disables auto-compaction).
	CompactAfter int
	// Obs receives ingest telemetry (nil disables).
	Obs *obs.Observer
}

// withDefaults resolves the documented zero-value defaults.
func (c Config) withDefaults() Config {
	if c.FS == nil {
		c.FS = OSFS{}
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = 1 << 20
	}
	if c.PublishEvery == 0 {
		c.PublishEvery = 64
	}
	if c.PublishInterval == 0 {
		c.PublishInterval = 250 * time.Millisecond
	}
	if c.CompactAfter == 0 {
		c.CompactAfter = 8
	}
	return c
}

// ExtractFunc turns a batch of review texts into per-review tag lists:
// out[i] are the subjective tags of texts[i]. It must be deterministic and
// must match whatever extraction built the batch world the stream is
// compared against — the bit-identity guarantee is "same extraction, same
// review order ⇒ same index", not "any extraction".
type ExtractFunc func(texts []string) [][]string

// entityState is one entity's accumulated stream state: how many reviews
// have arrived and every tag extracted from them, in arrival order. This is
// exactly the index.EntityReviews a batch build would be handed, which is
// why postings recomputed from it are bit-identical to the batch posting.
type entityState struct {
	reviews int
	tags    []string
}

// EntityMeta is the objective metadata of one streamed entity — the fields
// the dialog layer filters on. It rides the ingest stream as its own WAL
// record kind (and inside checkpoints), so a recovered entity comes back
// with its identity instead of as a bare-ID stub.
type EntityMeta struct {
	Name    string `json:"name,omitempty"`
	City    string `json:"city,omitempty"`
	Cuisine string `json:"cuisine,omitempty"`
}

// pendingReview is an acknowledged review whose tags have not been folded
// into the index yet (extraction runs per publication batch, not per
// append).
type pendingReview struct {
	seq    uint64
	entity string
	text   string
}

// Ingester is the streaming write path: Append acknowledges a review once
// the WAL has it durable, publication batches turn pending reviews into a
// mini-snapshot merged into the live index.Snapshot, and compaction folds
// the accumulated state into a checkpoint and truncates the WAL. Safe for
// concurrent use; readers querying the index are never blocked (they pin
// immutable snapshots).
type Ingester struct {
	cfg     Config
	extract ExtractFunc

	mu           sync.Mutex
	ix           *index.Index
	wal          *WAL // nil when cfg.Dir == ""
	tags         []string
	state        map[string]*entityState
	meta         map[string]EntityMeta // durable entity metadata (upsert semantics)
	order        []string              // entity first-seen order (deterministic iteration)
	pending      []pendingReview
	oldestWait   time.Time // arrival of pending[0] (publish-lag numerator)
	appended     uint64    // count-only when wal == nil
	published    uint64    // watermark of the last publication
	sinceCompact int       // publications since the last compaction
	closed       bool

	done chan struct{} // closes the staleness ticker
	tick *time.Ticker

	appendHist  *obs.Histogram
	publishHist *obs.Histogram
	lagHist     *obs.Histogram
	pendGauge   *obs.Gauge
	compactCtr  *obs.Counter
	recoverHist *obs.Histogram
}

// Open starts an ingester feeding ix. tags is the indexed tag list deltas
// are computed over (every publication covers all of them, so merged
// generations stay equivalent to batch builds); seed is the entity state the
// stream continues from — typically the batch-built world, or nil to start
// empty. When cfg.Dir is set, Open recovers first: the newest valid
// checkpoint restores entity state, the WAL tail past it is replayed through
// extract, and one full deterministic build is published — so no
// acknowledged review is ever lost, and recovery publishes exactly one
// generation.
func Open(cfg Config, ix *index.Index, tags []string, seed []index.EntityReviews, extract ExtractFunc) (*Ingester, error) {
	if extract == nil {
		return nil, fmt.Errorf("ingest: nil extract function")
	}
	cfg = cfg.withDefaults()
	ing := &Ingester{
		cfg:         cfg,
		extract:     extract,
		ix:          ix,
		tags:        append([]string(nil), tags...),
		state:       map[string]*entityState{},
		meta:        map[string]EntityMeta{},
		done:        make(chan struct{}),
		appendHist:  cfg.Obs.Histogram("ingest.append"),
		publishHist: cfg.Obs.Histogram("ingest.publish"),
		lagHist:     cfg.Obs.Histogram("ingest.publish.lag"),
		pendGauge:   cfg.Obs.Gauge("ingest.pending"),
		compactCtr:  cfg.Obs.Counter("ingest.compactions.total"),
		recoverHist: cfg.Obs.Histogram("ingest.recover"),
	}
	for _, er := range seed {
		ing.noteEntityLocked(er.EntityID)
		st := ing.state[er.EntityID]
		st.reviews = er.ReviewCount
		st.tags = append([]string(nil), er.Tags...)
	}
	if cfg.Dir != "" {
		if err := ing.recover(); err != nil {
			return nil, err
		}
	} else if !ing.vocabularyPublished() {
		// The caller handed us a virgin index. Without this build, the empty
		// zero-tag generation would stay published until the first delta
		// round, and a concurrent reader could pin a snapshot no batch build
		// of any append prefix produces. Publish the seeded world — with the
		// vocabulary registered — before Open returns, matching the
		// postcondition the recovery path already guarantees. (An index
		// already built over the seed, the facade's case, is left untouched.)
		if err := ing.rebuildLocked(context.Background()); err != nil {
			return nil, err
		}
	}
	if cfg.PublishInterval > 0 {
		ing.tick = time.NewTicker(cfg.PublishInterval)
		go ing.tickLoop()
	}
	return ing, nil
}

func (g *Ingester) tickLoop() {
	for {
		select {
		case <-g.done:
			return
		case <-g.tick.C:
			g.mu.Lock()
			if !g.closed && len(g.pending) > 0 {
				_ = g.publishLocked(context.Background())
			}
			g.mu.Unlock()
		}
	}
}

// noteEntityLocked registers an entity on first sight, preserving arrival
// order.
func (g *Ingester) noteEntityLocked(id string) {
	if _, ok := g.state[id]; !ok {
		g.state[id] = &entityState{}
		g.order = append(g.order, id)
	}
}

// Append acknowledges one review. With a WAL the call returns only after
// the record is on stable storage; without one it is a purely in-memory
// enqueue. The review's tags become queryable within the staleness bound —
// after at most PublishEvery further appends or PublishInterval elapsed
// time, whichever comes first.
func (g *Ingester) Append(ctx context.Context, entityID, review string) (uint64, error) {
	if entityID == "" {
		return 0, fmt.Errorf("ingest: empty entity ID")
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return 0, fmt.Errorf("ingest: ingester is closed")
	}
	var seq uint64
	if g.wal != nil {
		var err error
		seq, err = g.wal.Append(entityID, review)
		if err != nil {
			return 0, err
		}
	} else {
		g.appended++
		seq = g.appended
	}
	g.noteEntityLocked(entityID)
	if len(g.pending) == 0 {
		g.oldestWait = t0
	}
	g.pending = append(g.pending, pendingReview{seq: seq, entity: entityID, text: review})
	g.pendGauge.Set(float64(len(g.pending)))
	if g.cfg.PublishEvery > 0 && len(g.pending) >= g.cfg.PublishEvery {
		if err := g.publishLocked(ctx); err != nil {
			// The review is durable and will surface on the next
			// publication (or recovery); the ack stands.
			g.cfg.Obs.Counter("ingest.publish.errors.total").Inc()
		}
	}
	g.appendHist.Observe(time.Since(t0))
	return seq, nil
}

// PutMeta durably upserts one entity's metadata: with a WAL the call
// returns only after the metadata record is fsynced, and checkpoints carry
// it from then on, so a recovered entity keeps its identity. An upsert
// identical to the stored metadata is acknowledged without touching the log,
// which makes callers free to PutMeta on every append. Returns the record's
// sequence number (0 for the dedup no-op).
func (g *Ingester) PutMeta(ctx context.Context, entityID string, m EntityMeta) (uint64, error) {
	if entityID == "" {
		return 0, fmt.Errorf("ingest: empty entity ID")
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return 0, fmt.Errorf("ingest: ingester is closed")
	}
	if cur, ok := g.meta[entityID]; ok && cur == m {
		return 0, nil
	}
	var seq uint64
	if g.wal != nil {
		body, err := json.Marshal(m)
		if err != nil {
			return 0, err
		}
		seq, err = g.wal.AppendMeta(entityID, string(body))
		if err != nil {
			return 0, err
		}
	} else {
		g.appended++
		seq = g.appended
	}
	g.noteEntityLocked(entityID)
	g.meta[entityID] = m
	return seq, nil
}

// SeedMeta upserts entity metadata in memory only — the Open-time seeding
// hook for a world whose metadata is already durable elsewhere (or will be
// at the next checkpoint, which always carries the full metadata map).
func (g *Ingester) SeedMeta(meta map[string]EntityMeta) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for id, m := range meta {
		if id == "" {
			continue
		}
		g.meta[id] = m
	}
	g.noteMetaOnlyLocked()
}

// noteMetaOnlyLocked registers entities that have metadata but no stream
// state yet, in sorted order so checkpoints stay deterministic.
func (g *Ingester) noteMetaOnlyLocked() {
	var extra []string
	for id := range g.meta {
		if _, ok := g.state[id]; !ok {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	for _, id := range extra {
		g.noteEntityLocked(id)
	}
}

// Meta returns a copy of the accumulated entity metadata.
func (g *Ingester) Meta() map[string]EntityMeta {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]EntityMeta, len(g.meta))
	for id, m := range g.meta {
		out[id] = m
	}
	return out
}

// Flush syncs the WAL and publishes every pending review. The sync is a
// barrier only: every acknowledged append is already on stable storage.
// After Flush returns the published snapshot reflects every acknowledged
// append — the quiescence point the differential oracle compares at.
func (g *Ingester) Flush(ctx context.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("ingest: ingester is closed")
	}
	if g.wal != nil {
		if err := g.wal.Sync(); err != nil {
			return err
		}
	}
	if len(g.pending) == 0 {
		return nil
	}
	return g.publishLocked(ctx)
}

// publishLocked is one delta round: batch-extract the pending reviews, fold
// them into the per-entity state, recompute the dirty entities' postings
// over the full tag list, and merge-publish the next generation. Caller
// holds g.mu.
func (g *Ingester) publishLocked(ctx context.Context) error {
	t0 := time.Now()
	batch := g.pending
	texts := make([]string, len(batch))
	for i, p := range batch {
		texts[i] = p.text
	}
	tagLists := g.extract(texts)
	if len(tagLists) != len(batch) {
		return fmt.Errorf("ingest: extractor returned %d tag lists for %d reviews", len(tagLists), len(batch))
	}
	// Oldest pending review first: state accumulation must follow arrival
	// order so the degree computation sees the same tag sequence a batch
	// build would. The fold runs on staged copies — g.state commits only
	// after MergeDelta succeeds, so a failed or cancelled merge leaves the
	// batch fully pending and the retry re-folds from scratch instead of
	// double-counting reviews and duplicating tags.
	staged := map[string]*entityState{}
	for i, p := range batch {
		st := staged[p.entity]
		if st == nil {
			cur := g.state[p.entity]
			st = &entityState{reviews: cur.reviews, tags: append([]string(nil), cur.tags...)}
			staged[p.entity] = st
		}
		st.reviews++
		st.tags = append(st.tags, tagLists[i]...)
	}
	dirty := make([]index.EntityReviews, 0, len(staged))
	for _, id := range g.order {
		st, ok := staged[id]
		if !ok {
			continue
		}
		dirty = append(dirty, index.EntityReviews{EntityID: id, ReviewCount: st.reviews, Tags: st.tags})
	}
	if err := g.ix.MergeDelta(ctx, g.tags, dirty); err != nil {
		return err
	}
	for id, st := range staged {
		g.state[id] = st
	}
	watermark := batch[len(batch)-1].seq
	g.pending = g.pending[len(batch):]
	if len(g.pending) == 0 {
		g.pending = nil
	}
	g.published = watermark
	g.pendGauge.Set(float64(len(g.pending)))
	g.publishHist.Observe(time.Since(t0))
	// Publish lag: how long the oldest review in the batch waited between
	// acknowledgment and becoming queryable — the staleness the
	// PublishEvery/PublishInterval knobs bound.
	if !g.oldestWait.IsZero() {
		g.lagHist.Observe(time.Since(g.oldestWait))
		g.oldestWait = time.Time{}
	}
	g.sinceCompact++
	if g.cfg.CompactAfter > 0 && g.sinceCompact >= g.cfg.CompactAfter {
		if err := g.compactLocked(); err != nil {
			g.cfg.Obs.Counter("ingest.compact.errors.total").Inc()
		}
	}
	return nil
}

func ckptName(seq uint64) string { return fmt.Sprintf("state-%016x.ckpt", seq) }

// Compact folds the ingested state into one durable artifact: an
// entity-state checkpoint at the published watermark, after which every
// WAL segment at or below the watermark is removed. Pending (unpublished)
// reviews stay in the WAL. A crash anywhere during compaction recovers,
// because the checkpoint is made durable (tmp + sync + rename + directory
// sync) before anything is deleted.
func (g *Ingester) Compact() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("ingest: ingester is closed")
	}
	return g.compactLocked()
}

func (g *Ingester) compactLocked() error {
	g.sinceCompact = 0
	if g.cfg.Dir == "" {
		return nil
	}
	watermark := g.published
	if err := g.writeCheckpointLocked(watermark); err != nil {
		return err
	}
	// Now that the checkpoint is durable, drop superseded artifacts: older
	// checkpoints, a checkpoint temp file a crash left behind, and the
	// base/delta snapshot files older builds wrote beside them. None of
	// them is read on recovery, so the removals need no fence of their own.
	if names, err := g.cfg.FS.ReadDir(g.cfg.Dir); err == nil {
		for _, n := range names {
			var seq uint64
			switch {
			case parseSeq(n, "state-", ".ckpt", &seq) && seq < watermark,
				parseSeq(n, "state-", ".ckpt.tmp", &seq),
				parseSeq(n, "base-", ".snap", &seq),
				parseSeq(n, "delta-", ".snap", &seq):
				if err := g.cfg.FS.Remove(join(g.cfg.Dir, n)); err != nil {
					return err
				}
			}
		}
	}
	if g.wal != nil {
		if err := g.wal.TruncateTo(watermark); err != nil {
			return err
		}
	}
	g.compactCtr.Inc()
	return nil
}

// checkpointFile is the durable entity-state format: everything needed to
// continue the stream (and rebuild the index) without the reviews
// themselves.
type checkpointFile struct {
	Version  int              `json:"version"`
	Seq      uint64           `json:"seq"`
	Tags     []string         `json:"tags"`
	Entities []checkpointment `json:"entities"`
}

type checkpointment struct {
	ID      string   `json:"id"`
	Reviews int      `json:"reviews"`
	Tags    []string `json:"tags"`
	// Meta is the entity's durable metadata, if any — an additive extension
	// (older checkpoints simply lack it; older readers ignore it).
	Meta *EntityMeta `json:"meta,omitempty"`
}

const checkpointVersion = 1

func (g *Ingester) writeCheckpointLocked(watermark uint64) error {
	ck := checkpointFile{Version: checkpointVersion, Seq: watermark, Tags: g.tags}
	for _, id := range g.order {
		st := g.state[id]
		ce := checkpointment{ID: id, Reviews: st.reviews, Tags: st.tags}
		if m, ok := g.meta[id]; ok {
			mc := m
			ce.Meta = &mc
		}
		ck.Entities = append(ck.Entities, ce)
	}
	tmp := join(g.cfg.Dir, ckptName(watermark)+".tmp")
	f, err := g.cfg.FS.Create(tmp)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(ck); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := g.cfg.FS.Rename(tmp, join(g.cfg.Dir, ckptName(watermark))); err != nil {
		return err
	}
	// Fence the rename: until the directory entry is durable, a crash can
	// lose the checkpoint file entirely, and compaction must not delete
	// the WAL segments it supersedes before that.
	return g.cfg.FS.SyncDir(g.cfg.Dir)
}

// parseSeq extracts the hex watermark from names like prefix-XXXXXXXX.suffix.
func parseSeq(name, prefix, suffix string, out *uint64) bool {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	var v uint64
	if _, err := fmt.Sscanf(hex, "%x", &v); err != nil || len(hex) != 16 {
		return false
	}
	*out = v
	return true
}

// recover restores state from cfg.Dir: newest valid checkpoint → entity
// state and tag list; WAL records past the checkpoint → re-extracted and
// folded in; then one full deterministic build is published. Acked-but-
// unpublished reviews thus reappear exactly as if they had streamed in
// normally.
func (g *Ingester) recover() error {
	t0 := time.Now()
	fsys := g.cfg.FS
	dir := g.cfg.Dir
	if err := fsys.MkdirAll(dir); err != nil {
		return fmt.Errorf("ingest: creating dir: %w", err)
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("ingest: scanning dir: %w", err)
	}

	// Newest checkpoint that parses wins; torn or unparseable ones (a crash
	// during the pre-rename sync) fall back to their predecessor.
	var ckptSeqs []uint64
	for _, n := range names {
		var seq uint64
		if parseSeq(n, "state-", ".ckpt", &seq) {
			ckptSeqs = append(ckptSeqs, seq)
		}
	}
	sort.Slice(ckptSeqs, func(i, j int) bool { return ckptSeqs[i] > ckptSeqs[j] })
	var ckptSeq uint64
	for _, seq := range ckptSeqs {
		data, rerr := fsys.ReadFile(join(dir, ckptName(seq)))
		if rerr != nil {
			continue
		}
		var ck checkpointFile
		if json.Unmarshal(data, &ck) != nil || ck.Version != checkpointVersion || ck.Seq != seq {
			continue
		}
		g.state = map[string]*entityState{}
		g.order = nil
		for _, e := range ck.Entities {
			if e.ID == "" {
				continue
			}
			g.noteEntityLocked(e.ID)
			st := g.state[e.ID]
			st.reviews = e.Reviews
			st.tags = e.Tags
			if e.Meta != nil {
				g.meta[e.ID] = *e.Meta
			}
		}
		// The checkpoint's tag list is the pre-crash index vocabulary; keep
		// its order (so the rebuilt index is byte-identical on Save) and
		// append any caller-supplied tags it does not know about yet.
		if len(ck.Tags) > 0 {
			merged := append([]string(nil), ck.Tags...)
			seen := make(map[string]struct{}, len(merged))
			for _, tg := range merged {
				seen[tg] = struct{}{}
			}
			for _, tg := range g.tags {
				if _, ok := seen[tg]; !ok {
					merged = append(merged, tg)
				}
			}
			g.tags = merged
		}
		ckptSeq = seq
		break
	}

	// WAL replay: every record past the checkpoint re-enters the pipeline.
	wal, recs, err := OpenWAL(fsys, dir, WALOptions{
		SegmentBytes: g.cfg.SegmentBytes,
		Obs:          g.cfg.Obs,
	})
	if err != nil {
		return err
	}
	g.wal = wal
	wal.EnsureNext(ckptSeq + 1)
	var tail []Record
	for _, r := range recs {
		if r.Seq > ckptSeq {
			tail = append(tail, r)
		}
	}
	g.published = ckptSeq
	g.appended = ckptSeq
	if len(tail) > 0 {
		// Batch-extract the review records (metadata records carry no text),
		// then fold the tail in sequence order so review state accumulates in
		// arrival order and metadata upserts apply last-writer-wins.
		var texts []string
		for _, r := range tail {
			if r.Kind == KindReview {
				texts = append(texts, r.Body)
			}
		}
		tagLists := g.extract(texts)
		if len(tagLists) != len(texts) {
			return fmt.Errorf("ingest: extractor returned %d tag lists for %d replayed reviews", len(tagLists), len(texts))
		}
		rv := 0
		for _, r := range tail {
			g.noteEntityLocked(r.Entity)
			switch r.Kind {
			case KindReview:
				st := g.state[r.Entity]
				st.reviews++
				st.tags = append(st.tags, tagLists[rv]...)
				rv++
			case KindMeta:
				var m EntityMeta
				if err := json.Unmarshal([]byte(r.Body), &m); err != nil {
					return fmt.Errorf("ingest: decoding metadata record %d: %w", r.Seq, err)
				}
				g.meta[r.Entity] = m
			}
		}
		g.published = tail[len(tail)-1].Seq
		g.appended = g.published
	}

	// Final authoritative publish: a full build over the recovered state,
	// byte-identical to the pre-crash quiescent index.
	if err := g.rebuildLocked(context.Background()); err != nil {
		return err
	}
	g.recoverHist.Observe(time.Since(t0))
	g.cfg.Obs.Counter("ingest.recoveries.total").Inc()
	g.cfg.Obs.Gauge("ingest.recover.replayed").Set(float64(len(tail)))
	return nil
}

// rebuildLocked publishes a full build of the accumulated stream state over
// the current vocabulary — the batch build the streamed world must stay
// equivalent to. Caller holds g.mu (or is still constructing the ingester).
func (g *Ingester) rebuildLocked(ctx context.Context) error {
	all := make([]index.EntityReviews, 0, len(g.order))
	for _, id := range g.order {
		st := g.state[id]
		all = append(all, index.EntityReviews{EntityID: id, ReviewCount: st.reviews, Tags: st.tags})
	}
	return g.ix.BuildCtx(ctx, g.tags, all)
}

// vocabularyPublished reports whether the index's current generation already
// registers every streamed tag — true when the caller handed Open an index
// built over the seed world, false for a virgin index.
func (g *Ingester) vocabularyPublished() bool {
	snap := g.ix.Current()
	if snap.Len() < len(g.tags) {
		return false
	}
	have := make(map[string]struct{}, snap.Len())
	snap.EachTag(func(t string) bool {
		have[t] = struct{}{}
		return true
	})
	for _, t := range g.tags {
		if _, ok := have[t]; !ok {
			return false
		}
	}
	return true
}

// Published returns the watermark of the last published generation.
func (g *Ingester) Published() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.published
}

// Pending returns how many acknowledged reviews await publication.
func (g *Ingester) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending)
}

// State returns a copy of the accumulated entity state in arrival order —
// the exact input a batch build of the streamed world would receive.
func (g *Ingester) State() []index.EntityReviews {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]index.EntityReviews, 0, len(g.order))
	for _, id := range g.order {
		st := g.state[id]
		out = append(out, index.EntityReviews{
			EntityID:    id,
			ReviewCount: st.reviews,
			Tags:        append([]string(nil), st.tags...),
		})
	}
	return out
}

// Tags returns the indexed tag list deltas are computed over.
func (g *Ingester) Tags() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.tags...)
}

// AddTags extends the indexed tag list (the Fig. 1 adaptive loop feeding
// reindexed history tags into the stream). Future publications cover the
// new tags; with a Dir the widened list becomes durable at the next
// compaction, which is triggered here so a crash cannot forget it.
func (g *Ingester) AddTags(tags []string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("ingest: ingester is closed")
	}
	have := map[string]bool{}
	for _, t := range g.tags {
		have[t] = true
	}
	added := false
	for _, t := range tags {
		if t != "" && !have[t] {
			g.tags = append(g.tags, t)
			have[t] = true
			added = true
		}
	}
	if added && g.cfg.Dir != "" {
		return g.compactLocked()
	}
	return nil
}

// Rebase resets the stream to a batch-built world: the given state (and
// entity metadata, nil for none) replaces everything accumulated so far, the
// WAL is truncated behind a fresh checkpoint, and future appends continue
// from here. The facade calls this when a full IndexEntities supersedes the
// streamed state.
func (g *Ingester) Rebase(ix *index.Index, tags []string, seed []index.EntityReviews, meta map[string]EntityMeta) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return fmt.Errorf("ingest: ingester is closed")
	}
	g.ix = ix
	g.tags = append([]string(nil), tags...)
	g.state = map[string]*entityState{}
	g.order = nil
	g.meta = make(map[string]EntityMeta, len(meta))
	for id, m := range meta {
		if id != "" {
			g.meta[id] = m
		}
	}
	for _, er := range seed {
		g.noteEntityLocked(er.EntityID)
		st := g.state[er.EntityID]
		st.reviews = er.ReviewCount
		st.tags = append([]string(nil), er.Tags...)
	}
	g.noteMetaOnlyLocked()
	g.pending = nil
	g.pendGauge.Set(float64(0))
	if g.wal != nil {
		g.published = g.wal.NextSeq() - 1
		g.appended = g.published
	} else {
		g.published = g.appended
	}
	return g.compactLocked()
}

// Close flushes pending reviews, stops the staleness ticker, and seals the
// WAL. The ingester is unusable afterwards.
func (g *Ingester) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	if g.tick != nil {
		g.tick.Stop()
	}
	close(g.done)
	var err error
	if len(g.pending) > 0 {
		err = g.publishLocked(context.Background())
	}
	if g.wal != nil {
		if cerr := g.wal.Close(); err == nil {
			err = cerr
		}
	}
	g.mu.Unlock()
	return err
}
