package saccs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"saccs/internal/index"
	"saccs/internal/ingest"
	"saccs/internal/obs"
)

// cloneForTest builds a second Client sharing the trained extraction
// pipeline (retraining takes seconds; the weights are immutable after New)
// but with its own world, index, ingester, and observer — the shape a
// process restart has, minus the training cost.
func cloneForTest(t *testing.T, c *Client, cfg Config) *Client {
	t.Helper()
	o := obs.NewObserver()
	o.SetTelemetry(obs.NewTelemetry(obs.TelemetryConfig{Metrics: o.Metrics}))
	hist := index.NewHistory()
	hist.SetCap(cfg.HistoryLimit)
	clone := &Client{
		cfg:     cfg,
		domain:  c.domain,
		extr:    c.extr,
		refExtr: c.refExtr,
		measure: c.measure,
		o:       o,
	}
	clone.w.Store(&world{ix: clone.newIndex(), history: hist})
	if cfg.WALDir != "" {
		clone.writeMu.Lock()
		err := clone.openIngestLocked()
		clone.writeMu.Unlock()
		if err != nil {
			t.Fatalf("clone: recovering ingest state: %v", err)
		}
	}
	return clone
}

// TestStreamedIngestReproducesGolden is the facade-level quiesce oracle: the
// golden world streamed review-by-review through AppendReview must produce,
// at quiescence, the exact index a batch IndexEntities build produces — same
// Save bytes, and the five golden query snapshots must reproduce unchanged.
func TestStreamedIngestReproducesGolden(t *testing.T) {
	c := goldenIndexedClient(t)
	var batchIndex bytes.Buffer
	if err := c.SaveIndex(&batchIndex); err != nil {
		t.Fatal(err)
	}
	batchWorld := goldenWorld()

	// Stream the same world into a fresh client sharing the trained
	// extractor. Tags must be registered up front (the streaming path widens
	// vocabulary via Reindex, not per append).
	cfg := DefaultConfig()
	cfg.IngestPublishEvery = 16
	cfg.IngestPublishInterval = -1
	stream := cloneForTest(t, c, cfg)
	if err := stream.IndexEntities(nil, c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	for _, e := range batchWorld {
		for _, r := range e.Reviews {
			if err := stream.AppendReview(e.ID, r); err != nil {
				t.Fatalf("append %s: %v", e.ID, err)
			}
		}
	}
	if err := stream.Quiesce(); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	var streamed bytes.Buffer
	if err := stream.SaveIndex(&streamed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batchIndex.Bytes(), streamed.Bytes()) {
		t.Fatalf("streamed index differs from batch build (%d vs %d bytes)",
			streamed.Len(), batchIndex.Len())
	}

	// The golden snapshots must reproduce against the streamed world. The
	// streamed client has no entity metadata (City/Cuisine stubs only), so
	// replay the three pure-subjective utterances that don't depend on
	// objective slots.
	for _, tc := range goldenUtterances {
		if tc.name == "delicious-italian-montreal" {
			continue // needs City/Cuisine metadata the stream doesn't carry
		}
		t.Run(tc.name, func(t *testing.T) {
			want := snapshotResponse(tc.utterance, c.Query(tc.utterance))
			got := snapshotResponse(tc.utterance, stream.Query(tc.utterance))
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("golden drifted over streamed world:\nwant %v\ngot  %v", want, got)
			}
		})
	}
}

// TestReindexAfterStreamCoversAppendedReviews: tags learned by Reindex after
// streamed appends must be indexed over every review the client holds — the
// appended ones included — exactly as a batch build of the whole world with
// every tag up front would index them.
func TestReindexAfterStreamCoversAppendedReviews(t *testing.T) {
	base := newClient(t)
	canon := base.CanonicalTags()
	known, learned := canon[:len(canon)/2], canon[len(canon)/2:]
	// The one index runs as subtest "shards=1", the name the case is reported under.
	t.Run("shards=1", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.IngestPublishInterval = -1
		batch := cloneForTest(t, base, cfg)
		if err := batch.IndexEntities(goldenWorld(), canon); err != nil {
			t.Fatal(err)
		}

		stream := cloneForTest(t, base, cfg)
		if err := stream.IndexEntities(nil, known); err != nil {
			t.Fatal(err)
		}
		for _, e := range goldenWorld() {
			for _, r := range e.Reviews {
				if err := stream.AppendReview(e.ID, r); err != nil {
					t.Fatalf("append %s: %v", e.ID, err)
				}
			}
		}
		if err := stream.Quiesce(); err != nil {
			t.Fatal(err)
		}
		stream.QueryTags(learned) // queues every learned tag
		if got := stream.Reindex(); len(got) != len(learned) {
			t.Fatalf("Reindex learned %v, want %v", got, learned)
		}
		if err := stream.Quiesce(); err != nil {
			t.Fatal(err)
		}

		want, got := batch.w.Load().ix, stream.w.Load().ix
		for _, tag := range canon {
			w, g := want.Lookup(tag), got.Lookup(tag)
			if fmt.Sprint(w) != fmt.Sprint(g) {
				t.Errorf("tag %q: streamed + reindexed has %d postings %v, batch build %d %v",
					tag, len(g), g, len(w), w)
			}
		}
	})
}

// TestAppendReviewWALRecovery proves the facade durability contract on the
// real filesystem: acknowledged reviews survive a client teardown and are
// recovered — index included — by the next New on the same WALDir.
func TestAppendReviewWALRecovery(t *testing.T) {
	base := newClient(t)
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.WALDir = dir
	cfg.IngestPublishEvery = 2
	cfg.IngestPublishInterval = -1

	first := cloneForTest(t, base, cfg)
	if err := first.IndexEntities(nil, base.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	reviews := []struct{ id, text string }{
		{"vue", "The food is delicious and the staff is friendly."},
		{"vue", "Amazing pizza and a quiet atmosphere."},
		{"hut", "The food was bland and the staff was rude."},
		{"anchovy", "Creative cooking and fresh ingredients."},
		{"anchovy", "Fair prices and generous portions."},
	}
	for _, r := range reviews {
		if err := first.AppendReview(r.id, r.text); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := first.Quiesce(); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := first.SaveIndex(&before); err != nil {
		t.Fatal(err)
	}
	first.Shutdown()

	// "Restart": a fresh client over the same WALDir recovers the world.
	second := cloneForTest(t, base, cfg)
	var after bytes.Buffer
	if err := second.SaveIndex(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("recovered index differs from pre-shutdown index:\nbefore: %s\nafter:  %s",
			before.Bytes(), after.Bytes())
	}
	// Recovered entities are queryable again.
	if _, ok := second.Entity("vue"); !ok {
		t.Fatal("recovered entity not registered")
	}
	got := second.QueryTags([]string{"delicious food"})
	if len(got) == 0 || got[0].ID != "vue" {
		t.Fatalf("recovered ranking wrong: %v", got)
	}
	second.Shutdown()
}

// TestShardedWALDirIsRefused: a WALDir holding the per-shard logs of a
// sharded client (shard-<i>/ subdirectories) must fail recovery with an
// error naming them, never open as an empty world that silently drops every
// review acknowledged under them.
func TestShardedWALDirIsRefused(t *testing.T) {
	base := newClient(t)
	dir := t.TempDir()
	ing, err := ingest.Open(ingest.Config{Dir: filepath.Join(dir, "shard-0")},
		index.New(base.measure, 0.55), nil, nil, base.extractReviewTags)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ing.Append(context.Background(), "e1", "great food"); err != nil {
		t.Fatal(err)
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	// Drive recovery the way New and cloneForTest do.
	c := cloneForTest(t, base, DefaultConfig())
	c.cfg.WALDir = dir
	c.writeMu.Lock()
	err = c.openIngestLocked()
	c.writeMu.Unlock()
	if err == nil {
		t.Fatal("a sharded WAL directory was opened")
	}
	if msg := err.Error(); !strings.Contains(msg, dir) || !strings.Contains(msg, "shard-0") {
		t.Fatalf("error %q does not name the directory and its shard-0 entry", msg)
	}
	if c.ing != nil || len(c.w.Load().ids) != 0 {
		t.Fatal("a refused recovery left an ingester or entities behind")
	}
}

// TestWritesAfterShutdownAreRefused: Shutdown seals the write side for good.
// Each write after it fails with ErrShutdown and leaves the served index
// byte for byte as it was. That covers a superseding IndexEntities followed
// by an append, which must not bring the pre-Shutdown world back from the
// checkpoint, and an append without a WAL, which must not reopen an empty
// stream that forgets the reviews already streamed. A fresh client on the
// same WALDir recovers exactly the world acknowledged before Shutdown.
func TestWritesAfterShutdownAreRefused(t *testing.T) {
	base := newClient(t)
	canon := base.CanonicalTags()
	known, learned := canon[:len(canon)/2], canon[len(canon)/2:]
	world2 := []Entity{{ID: "hut", Name: "Pizza Hut", Reviews: []string{"The food was bland and the staff was rude."}}}
	for _, withWAL := range []bool{true, false} {
		t.Run(fmt.Sprintf("wal=%v", withWAL), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.IngestPublishEvery = 2
			cfg.IngestPublishInterval = -1
			if withWAL {
				cfg.WALDir = t.TempDir()
			}
			c := cloneForTest(t, base, cfg)
			if err := c.IndexEntities(nil, known); err != nil {
				t.Fatal(err)
			}
			for _, r := range []string{
				"The food is delicious and the staff is friendly.",
				"Really good food. The waiters were very attentive.",
				"Amazing pizza and a quiet atmosphere.",
			} {
				if err := c.AppendReview("vue", r); err != nil {
					t.Fatalf("append: %v", err)
				}
			}
			if err := c.Quiesce(); err != nil {
				t.Fatal(err)
			}
			saved := func(c *Client) []byte {
				var buf bytes.Buffer
				if err := c.SaveIndex(&buf); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			before := saved(c)
			c.Shutdown()

			c.QueryTags(learned) // queues tags for the refused Reindex below
			writes := []struct {
				stage string
				run   func() error
			}{
				{"index", func() error { return c.IndexEntities(world2, canon) }},
				{"append", func() error { return c.AppendReview("vue", "The food was bland.") }},
				{"append", func() error { return c.AppendReview("hut", "The staff was rude.") }},
				{"register", func() error { return c.RegisterEntity(Entity{ID: "hut", City: "Paris"}) }},
				{"reindex", func() error { _, err := c.ReindexCtx(context.Background()); return err }},
			}
			for i, w := range writes {
				err := w.run()
				var serr *StageError
				if !errors.Is(err, ErrShutdown) || !errors.As(err, &serr) || serr.Stage != w.stage {
					t.Fatalf("write %d after Shutdown: %v, want a %q StageError wrapping ErrShutdown", i, err, w.stage)
				}
				if err := c.Quiesce(); err != nil {
					t.Fatal(err)
				}
				if got := saved(c); !bytes.Equal(got, before) {
					t.Fatalf("write %d after Shutdown changed the index:\nbefore: %s\nafter:  %s", i, before, got)
				}
			}
			if _, ok := c.Entity("hut"); ok {
				t.Fatal("a refused write registered an entity")
			}
			if got := c.QueryTags([]string{"delicious food"}); len(got) == 0 || got[0].ID != "vue" {
				t.Fatalf("query after Shutdown: %v, want vue first", got)
			}
			if withWAL {
				fresh := cloneForTest(t, base, cfg)
				if got := saved(fresh); !bytes.Equal(got, before) {
					t.Fatalf("fresh client recovered a different world:\nbefore: %s\nafter:  %s", before, got)
				}
				fresh.Shutdown()
			}
		})
	}
}

// TestShutdownRacingAppends: appends racing Shutdown either are
// acknowledged or fail with ErrShutdown, and what was acknowledged is
// exactly what the sealed client serves and what a fresh client on the same
// WALDir recovers.
func TestShutdownRacingAppends(t *testing.T) {
	base := newClient(t)
	cfg := DefaultConfig()
	cfg.WALDir = t.TempDir()
	cfg.IngestPublishEvery = 3
	cfg.IngestPublishInterval = -1
	c := cloneForTest(t, base, cfg)
	if err := c.IndexEntities(nil, base.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	texts := []string{
		"The food is delicious and the staff is friendly.",
		"The food was bland and the staff was rude.",
		"Amazing pizza and a quiet atmosphere.",
	}
	const writers, started = 3, 12
	var acked atomic.Int64
	var once sync.Once
	ready := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				err := c.AppendReview(fmt.Sprintf("racer%d", g), texts[(g+i)%len(texts)])
				if errors.Is(err, ErrShutdown) {
					return
				}
				if err != nil {
					t.Errorf("writer %d: %v", g, err)
					return
				}
				if acked.Add(1) == started {
					once.Do(func() { close(ready) })
				}
			}
			t.Errorf("writer %d: no append was refused after Shutdown", g)
		}(g)
	}
	<-ready
	c.Shutdown()
	wg.Wait()

	var served, recovered bytes.Buffer
	if err := c.SaveIndex(&served); err != nil {
		t.Fatal(err)
	}
	fresh := cloneForTest(t, base, cfg)
	defer fresh.Shutdown()
	if err := fresh.SaveIndex(&recovered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served.Bytes(), recovered.Bytes()) {
		t.Fatalf("recovered index differs from the one the sealed client serves:\nserved:    %s\nrecovered: %s", served.Bytes(), recovered.Bytes())
	}
	var reviews int64
	for _, er := range fresh.ing.State() {
		reviews += int64(er.ReviewCount)
	}
	if reviews != acked.Load() {
		t.Fatalf("recovered %d reviews, %d were acknowledged", reviews, acked.Load())
	}
}

// TestAppendReviewFailureLeavesNoPhantomEntity: a refused append must not
// leave its freshly-registered entity stub behind — no review was ever
// acknowledged, so queries and objective filtering must not see the entity.
func TestAppendReviewFailureLeavesNoPhantomEntity(t *testing.T) {
	base := newClient(t)
	cfg := DefaultConfig()
	cfg.IngestPublishInterval = -1
	c := cloneForTest(t, base, cfg)
	if err := c.IndexEntities(nil, base.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.AppendReviewCtx(ctx, "ghost", "The food is delicious."); err == nil {
		t.Fatal("append with a cancelled context was acknowledged")
	}
	if _, ok := c.Entity("ghost"); ok {
		t.Fatal("failed append left a phantom entity visible")
	}
	// The rollback must not wedge the entity: a later successful append
	// registers it normally.
	if err := c.AppendReview("ghost", "The food is delicious."); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if _, ok := c.Entity("ghost"); !ok {
		t.Fatal("entity missing after an acknowledged append")
	}
}

// TestAppendReviewConcurrentQueryRace streams appends while queries run:
// under the race detector this proves the lock-free read path, and every
// response must be internally consistent (scores from one pinned
// generation).
func TestAppendReviewConcurrentQueryRace(t *testing.T) {
	base := newClient(t)
	cfg := DefaultConfig()
	cfg.IngestPublishEvery = 4
	cfg.IngestPublishInterval = -1
	c := cloneForTest(t, base, cfg)
	if err := c.IndexEntities(nil, base.CanonicalTags()); err != nil {
		t.Fatal(err)
	}

	texts := []string{
		"The food is delicious and the staff is friendly.",
		"Really good food. The waiters were very attentive.",
		"Amazing pizza and a quiet atmosphere.",
		"Fair prices and fresh ingredients.",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.QueryTagsCtx(context.Background(), []string{"delicious food", "nice staff"}); err != nil {
					t.Errorf("query during appends: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 24; i++ {
		id := fmt.Sprintf("r%d", i%5)
		if err := c.AppendReview(id, texts[i%len(texts)]); err != nil {
			t.Errorf("append %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	// Quiescent sanity: all five streamed entities are registered and the
	// index answers over them.
	for i := 0; i < 5; i++ {
		if _, ok := c.Entity(fmt.Sprintf("r%d", i)); !ok {
			t.Fatalf("streamed entity r%d missing", i)
		}
	}
}
