package ingest

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"saccs/internal/index"
	"saccs/internal/sim"
)

// flatSim is a cheap deterministic similarity: exact match or a sub-theta
// constant. It keeps the merge logic under test without dragging the
// taxonomy in.
var flatSim = sim.PhraseFunc(func(a, b string) float64 {
	if a == b {
		return 1
	}
	if (a == "good food" && b == "decent food") || (a == "decent food" && b == "good food") {
		return 0.6
	}
	return 0.3
})

// splitExtract is the test extractor: review texts are "tag|tag|…", so
// extraction is deterministic, order-preserving, and trivially batchable.
func splitExtract(texts []string) [][]string {
	out := make([][]string, len(texts))
	for i, t := range texts {
		if t == "" {
			out[i] = nil
			continue
		}
		out[i] = strings.Split(t, "|")
	}
	return out
}

// streamItem is one append in a generated scenario.
type streamItem struct {
	entity string
	review string
}

// genStream builds a deterministic review stream: n reviews over e entities
// drawing tags (and near-miss noise tags) from the given list.
func genStream(seed int64, n, e int, tags []string) []streamItem {
	rng := rand.New(rand.NewSource(seed))
	items := make([]streamItem, n)
	for i := range items {
		k := 1 + rng.Intn(3)
		parts := make([]string, 0, k)
		for j := 0; j < k; j++ {
			if rng.Intn(4) == 0 {
				parts = append(parts, fmt.Sprintf("noise tag %d", rng.Intn(6)))
			} else {
				parts = append(parts, tags[rng.Intn(len(tags))])
			}
		}
		items[i] = streamItem{
			entity: fmt.Sprintf("e%02d", rng.Intn(e)),
			review: strings.Join(parts, "|"),
		}
	}
	return items
}

var testTags = []string{"good food", "nice staff", "cozy place", "fair prices"}

// repeatItem builds n identical appends.
func repeatItem(entity, review string, n int) []streamItem {
	out := make([]streamItem, n)
	for i := range out {
		out[i] = streamItem{entity: entity, review: review}
	}
	return out
}

// batchState replays a stream the way a batch build would see it: per-entity
// accumulated tags in arrival order, entities in first-seen order.
func batchState(items []streamItem) []index.EntityReviews {
	type st struct {
		reviews int
		tags    []string
	}
	state := map[string]*st{}
	var order []string
	for _, it := range items {
		s, ok := state[it.entity]
		if !ok {
			s = &st{}
			state[it.entity] = s
			order = append(order, it.entity)
		}
		s.reviews++
		s.tags = append(s.tags, splitExtract([]string{it.review})[0]...)
	}
	out := make([]index.EntityReviews, 0, len(order))
	for _, id := range order {
		out = append(out, index.EntityReviews{EntityID: id, ReviewCount: state[id].reviews, Tags: state[id].tags})
	}
	return out
}

func batchIndex(items []streamItem) *index.Index {
	ix := index.New(flatSim, 0.5)
	ix.Build(testTags, batchState(items))
	return ix
}

func saveBytes(t *testing.T, ix *index.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// mustEqualIndexes asserts byte-identical Save output — the bit-identity
// bar every streamed path must clear against its batch twin.
func mustEqualIndexes(t *testing.T, what string, got, want *index.Index) {
	t.Helper()
	g, w := saveBytes(t, got), saveBytes(t, want)
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: streamed index differs from batch build\nstreamed:\n%s\nbatch:\n%s", what, g, w)
	}
}

func appendAll(t *testing.T, ing *Ingester, items []streamItem) {
	t.Helper()
	for i, it := range items {
		if _, err := ing.Append(context.Background(), it.entity, it.review); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestStreamedEqualsBatchInMemory(t *testing.T) {
	items := genStream(7, 200, 9, testTags)
	for _, every := range []int{1, 7, 64, -1} {
		ix := index.New(flatSim, 0.5)
		ing, err := Open(Config{PublishEvery: every, PublishInterval: -1}, ix, testTags, nil, splitExtract)
		if err != nil {
			t.Fatalf("open (every=%d): %v", every, err)
		}
		appendAll(t, ing, items)
		if err := ing.Flush(context.Background()); err != nil {
			t.Fatalf("flush: %v", err)
		}
		mustEqualIndexes(t, fmt.Sprintf("PublishEvery=%d", every), ix, batchIndex(items))
		if err := ing.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
}

func TestStreamedEqualsBatchDurable(t *testing.T) {
	items := genStream(11, 150, 7, testTags)
	fs := NewMemFS()
	ix := index.New(flatSim, 0.5)
	cfg := Config{FS: fs, Dir: "ingest", PublishEvery: 16, PublishInterval: -1, CompactAfter: 3, SegmentBytes: 1 << 12}
	ing, err := Open(cfg, ix, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendAll(t, ing, items)
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	mustEqualIndexes(t, "durable stream at quiescence", ix, batchIndex(items))
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Clean restart (no crash): recovery must reproduce the same index from
	// checkpoint + WAL tail.
	ix2 := index.New(flatSim, 0.5)
	ing2, err := Open(cfg, ix2, nil, nil, splitExtract)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	mustEqualIndexes(t, "after clean restart", ix2, batchIndex(items))
	if err := ing2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
}

func TestSeededStreamContinuesBatchWorld(t *testing.T) {
	// A batch-built world seeds the ingester; further appends must land on
	// top of it exactly as if the whole history had been one batch.
	history := genStream(3, 80, 6, testTags)
	live := genStream(4, 60, 6, testTags)
	seed := batchState(history)

	ix := index.New(flatSim, 0.5)
	ix.Build(testTags, seed)
	ing, err := Open(Config{PublishEvery: 10, PublishInterval: -1}, ix, testTags, seed, splitExtract)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendAll(t, ing, live)
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	mustEqualIndexes(t, "seeded stream", ix, batchIndex(append(append([]streamItem(nil), history...), live...)))
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestFailedPublishRetriesWithoutDoubleFolding(t *testing.T) {
	// A publication that fails inside MergeDelta (here: cancelled context,
	// the shape a count-triggered publish inherits from its Append's ctx)
	// must leave the batch fully pending and the entity state untouched —
	// the retry re-extracts and re-folds from scratch. A fold committed
	// before the failed merge would double-count every review in the batch
	// and permanently break batch/stream bit-identity.
	ix := index.New(flatSim, 0.5)
	ing, err := Open(Config{PublishEvery: -1, PublishInterval: -1}, ix, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	items := genStream(17, 25, 4, testTags)
	appendAll(t, ing, items)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 3; i++ {
		if err := ing.Flush(cancelled); err == nil {
			t.Fatalf("flush %d with cancelled context succeeded", i)
		}
	}
	if got := ing.Pending(); got != len(items) {
		t.Fatalf("failed publishes consumed pending reviews: %d left, want %d", got, len(items))
	}
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	mustEqualIndexes(t, "retry after failed publish", ix, batchIndex(items))
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestIntervalDefaultAppliesWithCountTriggerDisabled(t *testing.T) {
	// PublishEvery < 0 with PublishInterval 0 must still pick the 250ms
	// ticker default — otherwise appends would never publish until an
	// explicit Flush, silently violating the documented staleness bound.
	cfg := Config{PublishEvery: -1}.withDefaults()
	if cfg.PublishInterval != 250*time.Millisecond {
		t.Fatalf("PublishInterval default = %v with count trigger disabled, want 250ms", cfg.PublishInterval)
	}
}

func TestPublishIntervalBoundsStaleness(t *testing.T) {
	ix := index.New(flatSim, 0.5)
	// Count trigger effectively off; only the ticker can publish.
	ing, err := Open(Config{PublishEvery: -1, PublishInterval: 5 * time.Millisecond}, ix, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer ing.Close()
	if _, err := ing.Append(context.Background(), "e1", "good food"); err != nil {
		t.Fatalf("append: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(ix.Lookup("good food")) == 1 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("review not published within the staleness bound")
}

// --- compaction edge cases --------------------------------------------------

func TestCompactEmptyWAL(t *testing.T) {
	fs := NewMemFS()
	ix := index.New(flatSim, 0.5)
	cfg := Config{FS: fs, Dir: "ingest", PublishInterval: -1}
	ing, err := Open(cfg, ix, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := ing.Compact(); err != nil {
		t.Fatalf("compacting an empty log: %v", err)
	}
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ix2 := index.New(flatSim, 0.5)
	ing2, err := Open(cfg, ix2, nil, nil, splitExtract)
	if err != nil {
		t.Fatalf("reopen after empty compaction: %v", err)
	}
	if got := ing2.Published(); got != 0 {
		t.Fatalf("published watermark = %d after empty compaction, want 0", got)
	}
	if err := ing2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
}

func TestCompactSingleSegmentTruncate(t *testing.T) {
	fs := NewMemFS()
	items := genStream(21, 12, 4, testTags)
	ix := index.New(flatSim, 0.5)
	cfg := Config{FS: fs, Dir: "ingest", PublishEvery: -1, PublishInterval: -1, CompactAfter: -1}
	ing, err := Open(cfg, ix, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendAll(t, ing, items)
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := ing.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// All records are at or below the watermark: the single data segment
	// must be gone (at most a fresh empty one remains).
	names, err := fs.ReadDir("ingest")
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, "wal-") && n == segName(1) {
			t.Fatalf("compaction left the fully-covered first segment behind: %v", names)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ix2 := index.New(flatSim, 0.5)
	ing2, err := Open(cfg, ix2, nil, nil, splitExtract)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	mustEqualIndexes(t, "after single-segment compaction", ix2, batchIndex(items))
	if err := ing2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
}

func TestCompactionRacingFreshAppends(t *testing.T) {
	fs := NewMemFS()
	items := genStream(33, 300, 8, testTags)
	ix := index.New(flatSim, 0.5)
	cfg := Config{FS: fs, Dir: "ingest", PublishEvery: 8, PublishInterval: -1, CompactAfter: -1, SegmentBytes: 1 << 11}
	ing, err := Open(cfg, ix, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// One goroutine compacts continuously while another appends: no append
	// may be lost to a concurrent truncation, and the quiescent index must
	// still match the batch build. The handshake channel forces real overlap
	// — every 32 appends the appender waits for a compaction to complete, so
	// the interleaving cannot degenerate into "all appends, then compacts".
	stop := make(chan struct{})
	compacted := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if err := ing.Compact(); err != nil {
				t.Errorf("racing compact: %v", err)
				close(compacted)
				return
			}
			select {
			case <-stop:
				return
			case compacted <- struct{}{}:
			default:
			}
		}
	}()
	for i, it := range items {
		if _, err := ing.Append(context.Background(), it.entity, it.review); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if i%32 == 31 {
			<-compacted
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	mustEqualIndexes(t, "appends racing compaction", ix, batchIndex(items))
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// And the durable state must recover to the same index. The reopen
	// passes the tag list, as the facade always does: the checkpoint is the
	// authority when present, but the caller's vocabulary is the fallback
	// when the crash landed before the first compaction.
	ix2 := index.New(flatSim, 0.5)
	ing2, err := Open(cfg, ix2, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	mustEqualIndexes(t, "recovery after racing compaction", ix2, batchIndex(items))
	if err := ing2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
}

func TestDuplicatePostingsAcrossMiniSnapshotsNewestWins(t *testing.T) {
	// The same entity goes dirty in several publications; each mini-snapshot
	// carries its own (entity, tag) posting. The merge rule is newest-wins —
	// NOT max-degree — because Eq. 1 is non-monotone: e1's "good food"
	// degree first rises with a supporting review, then falls when an
	// off-tag review dilutes the mention rate. The final index must track
	// the latest full-state recomputation exactly, including downward moves.
	ix := index.New(flatSim, 0.5)
	ing, err := Open(Config{PublishEvery: -1, PublishInterval: -1}, ix, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Three mini-snapshots, all carrying an (e1, "good food") posting:
	// 10 strong reviews, 10 more strong reviews (degree rises), then one
	// weakly-similar mention whose 0.6 score drags the Eq. 1 mean down
	// faster than log(|Re|+1) grows (degree falls).
	batches := [][]streamItem{
		repeatItem("e1", "good food", 10),
		repeatItem("e1", "good food", 10),
		{{"e1", "decent food"}},
	}
	var sofar []streamItem
	var degrees []float64
	for i, batch := range batches {
		sofar = append(sofar, batch...)
		for _, it := range batch {
			if _, aerr := ing.Append(context.Background(), it.entity, it.review); aerr != nil {
				t.Fatalf("batch %d append: %v", i, aerr)
			}
		}
		if ferr := ing.Flush(context.Background()); ferr != nil {
			t.Fatalf("flush %d: %v", i, ferr)
		}
		// Each flush published one mini-snapshot; the live index must equal
		// a batch build of the prefix after every one of them.
		mustEqualIndexes(t, fmt.Sprintf("mini-snapshot %d", i+1), ix, batchIndex(sofar))
		entries := ix.Lookup("good food")
		if len(entries) != 1 || entries[0].EntityID != "e1" {
			t.Fatalf("batch %d: postings = %+v, want exactly e1", i, entries)
		}
		degrees = append(degrees, entries[0].Degree)
	}
	if !(degrees[1] > degrees[0]) {
		t.Fatalf("degree did not rise with supporting reviews: %v", degrees)
	}
	if !(degrees[2] < degrees[1]) {
		t.Fatalf("degree did not fall with a diluting review — a max-degree merge would pin it at %v: %v", degrees[1], degrees)
	}
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestAddTagsWidensFutureDeltas(t *testing.T) {
	fs := NewMemFS()
	ix := index.New(flatSim, 0.5)
	cfg := Config{FS: fs, Dir: "ingest", PublishEvery: -1, PublishInterval: -1}
	ing, err := Open(cfg, ix, testTags[:2], nil, splitExtract)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendAll(t, ing, []streamItem{{"e1", "cozy place"}})
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if ix.Has("cozy place") {
		t.Fatalf("unindexed tag appeared before AddTags")
	}
	if err := ing.AddTags([]string{"cozy place"}); err != nil {
		t.Fatalf("add tags: %v", err)
	}
	appendAll(t, ing, []streamItem{{"e1", "cozy place"}})
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if got := ix.Lookup("cozy place"); len(got) != 1 {
		t.Fatalf("widened tag postings = %+v, want e1", got)
	}
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The widened tag list is durable (AddTags checkpoints): a restart must
	// keep indexing it.
	ix2 := index.New(flatSim, 0.5)
	ing2, err := Open(cfg, ix2, nil, nil, splitExtract)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if !ix2.Has("cozy place") {
		t.Fatalf("widened tag list lost across restart; tags = %v", ing2.Tags())
	}
	if err := ing2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
}

func TestRebaseResetsStreamState(t *testing.T) {
	fs := NewMemFS()
	ix := index.New(flatSim, 0.5)
	cfg := Config{FS: fs, Dir: "ingest", PublishEvery: 4, PublishInterval: -1}
	ing, err := Open(cfg, ix, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendAll(t, ing, genStream(5, 30, 5, testTags))
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}

	// A batch reindex supersedes everything streamed so far.
	fresh := genStream(6, 40, 5, testTags)
	seed := batchState(fresh)
	ix2 := index.New(flatSim, 0.5)
	ix2.Build(testTags, seed)
	if err := ing.Rebase(ix2, testTags, seed, nil); err != nil {
		t.Fatalf("rebase: %v", err)
	}
	live := genStream(8, 25, 5, testTags)
	appendAll(t, ing, live)
	if err := ing.Flush(context.Background()); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want := batchIndex(append(append([]streamItem(nil), fresh...), live...))
	mustEqualIndexes(t, "rebased stream", ix2, want)
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Recovery must resume from the rebase checkpoint, not the pre-rebase
	// stream.
	ix3 := index.New(flatSim, 0.5)
	ing2, err := Open(cfg, ix3, nil, nil, splitExtract)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	mustEqualIndexes(t, "recovery after rebase", ix3, want)
	if err := ing2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
}

// TestLegacyStackFilesIgnoredAndCleaned: older builds also wrote derived
// base/delta snapshot files beside the WAL and the checkpoint. Recovery
// reads none of them — Open publishes exactly one generation, the batch
// build of the WAL — and the next compaction deletes them, leaving only the
// two durable artifacts.
func TestLegacyStackFilesIgnoredAndCleaned(t *testing.T) {
	fs := NewMemFS()
	items := genStream(41, 24, 4, testTags)
	cfg := Config{FS: fs, Dir: "ingest", PublishEvery: -1, PublishInterval: -1, CompactAfter: -1}
	ing, err := Open(cfg, index.New(flatSim, 0.5), testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	appendAll(t, ing, items)
	if err := ing.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// A version-2 base at watermark 8, a delta above it posting an entity
	// the stream never saw, a corrupt delta at or below the base, and the
	// torn temp file of a checkpoint a crash never renamed.
	legacy := map[string]string{
		"base-0000000000000008.snap": `{"version":2,"kind":"full","seq":8,"theta_index":0.5,` +
			`"tags":[{"tag":"good food","entries":[{"EntityID":"stale","Degree":0.9}]}]}`,
		"delta-0000000000000010.snap": `{"version":2,"kind":"delta","seq":16,"theta_index":0.5,"entities":["stale"],` +
			`"tags":[{"tag":"good food","entries":[{"EntityID":"stale","Degree":0.8}]}]}`,
		"delta-0000000000000004.snap":     `{"version":2,"kind":"delta","seq":`,
		"state-0000000000000003.ckpt.tmp": `{"version":1,"seq":3,`,
	}
	for name, body := range legacy {
		f, err := fs.Create(join("ingest", name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(body)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	ix := index.New(flatSim, 0.5)
	before := ix.Current().Generation()
	ing2, err := Open(cfg, ix, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := ix.Current().Generation() - before; got != 1 {
		t.Fatalf("recovery published %d generations, want exactly 1", got)
	}
	mustEqualIndexes(t, "recovery beside legacy stack files", ix, batchIndex(items))
	if err := ing2.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	names, err := fs.ReadDir("ingest")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		var seq uint64
		if !parseSeq(n, "wal-", ".seg", &seq) && !parseSeq(n, "state-", ".ckpt", &seq) {
			t.Fatalf("compaction left %q behind: %v", n, names)
		}
	}
	if err := ing2.Close(); err != nil {
		t.Fatalf("close 2: %v", err)
	}
}
