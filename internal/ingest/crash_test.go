package ingest

import (
	"context"
	"errors"
	"testing"

	"saccs/internal/index"
)

// crashScenario is one pass of the kill-point matrix: open an ingester on a
// fresh MemFS, arm fault injection to fail the failAt-th mutating filesystem
// operation, and stream items until the first append is refused. It returns
// the filesystem to crash, how many appends were acknowledged, and whether
// the injected fault ever fired (false once failAt exceeds the scenario's
// total operation count — the sweep's termination signal).
func crashScenario(t *testing.T, cfg Config, items []streamItem, failAt int64) (fs *MemFS, acked int, fired bool) {
	t.Helper()
	fs = NewMemFS()
	cfg.FS = fs
	ix := index.New(flatSim, 0.5)
	ing, err := Open(cfg, ix, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("failAt=%d: open: %v", failAt, err)
	}
	fs.SetFailAfter(failAt)
	for _, it := range items {
		if _, err := ing.Append(context.Background(), it.entity, it.review); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("failAt=%d: append %d failed with non-injected error: %v", failAt, acked, err)
			}
			return fs, acked, true
		}
		acked++
	}
	// Every append was acknowledged. Drain and close cleanly; if even that
	// succeeds, the budget outlasted the whole scenario and the sweep is done.
	if err := ing.Flush(context.Background()); err != nil {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("failAt=%d: flush: %v", failAt, err)
		}
		return fs, acked, true
	}
	if err := ing.Close(); err != nil {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("failAt=%d: close: %v", failAt, err)
		}
		return fs, acked, true
	}
	return fs, acked, false
}

// verifyRecovery crashes fs (keeping torn unsynced bytes), reopens on the
// wreckage, and checks the two durability invariants: every acknowledged
// review survives, and the recovered index is byte-identical to a batch
// build over exactly the reviews that survived — no corrupt postings, no
// phantom entities. When continueStream is set it then streams the remaining
// items into the recovered ingester and requires full convergence with the
// all-items batch build, proving the recovered world is live, not a husk.
func verifyRecovery(t *testing.T, fs *MemFS, cfg Config, items []streamItem, acked, torn int, continueStream bool) {
	t.Helper()
	crashed := fs.Crash(torn)
	cfg.FS = crashed
	ix := index.New(flatSim, 0.5)
	ing, err := Open(cfg, ix, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("torn=%d: reopen after crash: %v", torn, err)
	}
	recovered := 0
	for _, e := range ing.State() {
		recovered += e.ReviewCount
	}
	if recovered < acked {
		t.Fatalf("torn=%d: lost acknowledged reviews: recovered %d < acked %d", torn, recovered, acked)
	}
	if recovered > len(items) {
		t.Fatalf("torn=%d: recovered %d reviews, only %d were ever appended", torn, recovered, len(items))
	}
	mustEqualIndexes(t, "recovered index", ix, batchIndex(items[:recovered]))
	if continueStream {
		appendAll(t, ing, items[recovered:])
		if err := ing.Flush(context.Background()); err != nil {
			t.Fatalf("torn=%d: flush after recovery: %v", torn, err)
		}
		mustEqualIndexes(t, "stream resumed after recovery", ix, batchIndex(items))
	}
	if err := ing.Close(); err != nil {
		t.Fatalf("torn=%d: close recovered ingester: %v", torn, err)
	}
}

// sweepCrashMatrix kills the scenario at every mutating filesystem operation
// in turn — WAL record writes (mid-record: a failed write persists half its
// payload), per-append fsyncs, segment-header writes at rotation, and under
// compaction the checkpoint tmp/sync/rename, superseded-file removes, and
// WAL truncation — and proves
// recovery at each kill point for both a clean record-boundary crash
// (torn=0) and a torn trailing write (torn=3).
func sweepCrashMatrix(t *testing.T, cfg Config, items []streamItem) {
	const maxOps = 4000
	kills := 0
	for failAt := int64(1); ; failAt++ {
		if failAt > maxOps {
			t.Fatalf("scenario still failing after %d operations — runaway op count", maxOps)
		}
		fs, acked, fired := crashScenario(t, cfg, items, failAt)
		if !fired {
			if acked != len(items) {
				t.Fatalf("injection never fired but only %d/%d appends acked", acked, len(items))
			}
			t.Logf("matrix complete: %d kill points, %d items", kills, len(items))
			return
		}
		kills++
		for _, torn := range []int{0, 3} {
			verifyRecovery(t, fs, cfg, items, acked, torn, torn == 0)
		}
	}
}

func TestCrashMatrixStreaming(t *testing.T) {
	// Publish-heavy, no compaction: kill points land on WAL appends, fsyncs,
	// and rotations.
	items := genStream(21, 60, 6, testTags)
	sweepCrashMatrix(t, Config{
		Dir:             "ingest",
		PublishEvery:    4,
		PublishInterval: -1,
		CompactAfter:    -1,
		SegmentBytes:    1 << 10,
	}, items)
}

// metaScenario mirrors crashScenario but writes each entity's metadata record
// immediately before that entity's first review, so the sweep's kill points
// land on metadata WAL appends too. It returns the acked metadata set: an
// entity appears only once the PutMeta that carries its (unique) metadata was
// acknowledged.
func metaScenario(t *testing.T, cfg Config, items []streamItem, metaOf func(string) EntityMeta, failAt int64) (fs *MemFS, ackedMeta map[string]EntityMeta, fired bool) {
	t.Helper()
	fs = NewMemFS()
	cfg.FS = fs
	ix := index.New(flatSim, 0.5)
	ing, err := Open(cfg, ix, testTags, nil, splitExtract)
	if err != nil {
		t.Fatalf("failAt=%d: open: %v", failAt, err)
	}
	fs.SetFailAfter(failAt)
	ackedMeta = map[string]EntityMeta{}
	for i, it := range items {
		if _, ok := ackedMeta[it.entity]; !ok {
			if _, err := ing.PutMeta(context.Background(), it.entity, metaOf(it.entity)); err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("failAt=%d: put meta %d: %v", failAt, i, err)
				}
				return fs, ackedMeta, true
			}
			ackedMeta[it.entity] = metaOf(it.entity)
		}
		if _, err := ing.Append(context.Background(), it.entity, it.review); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("failAt=%d: append %d: %v", failAt, i, err)
			}
			return fs, ackedMeta, true
		}
	}
	if err := ing.Flush(context.Background()); err != nil {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("failAt=%d: flush: %v", failAt, err)
		}
		return fs, ackedMeta, true
	}
	if err := ing.Close(); err != nil {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("failAt=%d: close: %v", failAt, err)
		}
		return fs, ackedMeta, true
	}
	return fs, ackedMeta, false
}

// TestCrashMatrixMetadata proves metadata durability at every kill point: any
// acknowledged PutMeta must survive crash recovery bit-exactly, whether the
// record was still in the WAL tail or already folded into a checkpoint by
// compaction.
func TestCrashMatrixMetadata(t *testing.T) {
	items := genStream(23, 30, 5, testTags)
	metaOf := func(entity string) EntityMeta {
		return EntityMeta{Name: "Name of " + entity, City: "city-" + entity, Cuisine: "cuisine-" + entity}
	}
	cfg := Config{
		Dir:             "ingest",
		PublishEvery:    2,
		PublishInterval: -1,
		CompactAfter:    1,
		SegmentBytes:    1 << 9,
	}
	const maxOps = 4000
	kills := 0
	for failAt := int64(1); ; failAt++ {
		if failAt > maxOps {
			t.Fatalf("scenario still failing after %d operations — runaway op count", maxOps)
		}
		fs, ackedMeta, fired := metaScenario(t, cfg, items, metaOf, failAt)
		if !fired {
			t.Logf("metadata matrix complete: %d kill points", kills)
			return
		}
		kills++
		for _, torn := range []int{0, 3} {
			crashed := fs.Crash(torn)
			recfg := cfg
			recfg.FS = crashed
			ix := index.New(flatSim, 0.5)
			ing, err := Open(recfg, ix, testTags, nil, splitExtract)
			if err != nil {
				t.Fatalf("failAt=%d torn=%d: reopen: %v", failAt, torn, err)
			}
			got := ing.Meta()
			for entity, want := range ackedMeta {
				if got[entity] != want {
					t.Fatalf("failAt=%d torn=%d: meta for %s = %+v, want %+v", failAt, torn, entity, got[entity], want)
				}
			}
			if err := ing.Close(); err != nil {
				t.Fatalf("failAt=%d torn=%d: close: %v", failAt, torn, err)
			}
		}
	}
}

func TestCrashMatrixCompacting(t *testing.T) {
	// Compaction after every publish: kill points land inside checkpoint
	// write/sync/rename, superseded-artifact removal, and WAL truncation — the window where an interrupted cleanup must
	// never orphan the only durable copy of an acknowledged review.
	items := genStream(22, 40, 5, testTags)
	sweepCrashMatrix(t, Config{
		Dir:             "ingest",
		PublishEvery:    2,
		PublishInterval: -1,
		CompactAfter:    1,
		SegmentBytes:    1 << 9,
	}, items)
}
