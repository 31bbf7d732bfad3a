package index

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"saccs/internal/sim"
)

// TestSnapshotHasNoMutexField enforces the read-path contract structurally:
// a published Snapshot carries no mutex anywhere in its value — the query
// path cannot block on one even by accident. The walk follows struct fields
// and the elements of slices, arrays and maps, so the sealed prepared keys
// are covered. Pointer fields (observability instruments) stop it: they carry
// their own internal synchronization and are not part of the frozen value.
func TestSnapshotHasNoMutexField(t *testing.T) {
	mutex := reflect.TypeOf(sync.Mutex{})
	rwMutex := reflect.TypeOf(sync.RWMutex{})
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if typ == mutex || typ == rwMutex {
			t.Errorf("%s is a mutex on the lock-free read path", path)
			return
		}
		if seen[typ] {
			return // sim.Prepared holds a slice of itself
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		case reflect.Slice, reflect.Array, reflect.Map:
			walk(typ.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(Snapshot{}), "Snapshot")
	if !seen[reflect.TypeOf(sim.Prepared{})] {
		t.Fatal("the walk did not reach the sealed prepared keys")
	}
	// The entity table hangs off a pointer but is part of the frozen value,
	// and the measure the scan scores with hangs off an interface.
	walk(reflect.TypeOf(entityTable{}), "Snapshot.ents")
	walk(reflect.TypeOf(sim.Conceptual{}), "Snapshot.measure")
}

// TestPinnedSnapshotSurvivesRebuild pins a snapshot, rebuilds the index,
// and checks the pinned generation is byte-identical to before while
// Current() serves the new one.
func TestPinnedSnapshotSurvivesRebuild(t *testing.T) {
	ix := testIndex()
	ix.Build([]string{"good food"}, entities())
	snap := ix.Current()
	tagsBefore := snap.Tags()
	postingsBefore := snap.Lookup("good food")

	ix.Build([]string{"nice staff", "creative cooking"}, entities())

	if snap.Has("nice staff") || snap.Has("creative cooking") {
		t.Fatal("pinned snapshot grew new tags after a rebuild")
	}
	if !reflect.DeepEqual(snap.Tags(), tagsBefore) {
		t.Fatalf("pinned snapshot keys changed: %v -> %v", tagsBefore, snap.Tags())
	}
	if !reflect.DeepEqual(snap.Lookup("good food"), postingsBefore) {
		t.Fatal("pinned snapshot postings changed after a rebuild")
	}
	cur := ix.Current()
	if cur == snap {
		t.Fatal("Build did not publish a new generation")
	}
	for _, tag := range []string{"good food", "nice staff", "creative cooking"} {
		if !cur.Has(tag) {
			t.Fatalf("current generation missing %q", tag)
		}
	}
}

// TestBuildCtxCancelledPublishesNothing: a cancelled context aborts
// BuildCtx/AddTagCtx with the context's error and the index is unchanged —
// no partial generation ever becomes visible.
func TestBuildCtxCancelledPublishesNothing(t *testing.T) {
	ix := testIndex()
	ix.Build([]string{"good food"}, entities())
	before := ix.Current()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ix.BuildCtx(ctx, []string{"nice staff"}, entities()); !errors.Is(err, context.Canceled) {
		t.Fatalf("BuildCtx error: %v", err)
	}
	if err := ix.AddTagCtx(ctx, "creative cooking", entities()); !errors.Is(err, context.Canceled) {
		t.Fatalf("AddTagCtx error: %v", err)
	}
	if ix.Current() != before {
		t.Fatal("cancelled build published a generation")
	}
	if ix.Has("nice staff") || ix.Has("creative cooking") {
		t.Fatalf("cancelled build left tags behind: %v", ix.Tags())
	}
}

// TestBuildCtxDeadlineMidBuild cancels partway through via a context that
// expires after a fixed number of Err polls, exercising the in-loop checks
// rather than the up-front one.
func TestBuildCtxDeadlineMidBuild(t *testing.T) {
	ix := testIndex()
	ix.SetWorkers(1)
	ctx := &countdownCtx{Context: context.Background(), after: 2, err: context.DeadlineExceeded}
	err := ix.BuildCtx(ctx, []string{"good food", "nice staff", "creative cooking", "amazing pizza"}, entities())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("BuildCtx error: %v", err)
	}
	if ix.Len() != 0 {
		t.Fatalf("mid-build cancellation published tags: %v", ix.Tags())
	}
}

// countdownCtx reports no error for the first `after` Err() calls, then
// fails with err forever. All cancellation in this package is cooperative
// Err() polling, so the countdown deterministically places the failure at
// the Nth poll — no timing, no flakes.
type countdownCtx struct {
	context.Context
	mu    sync.Mutex
	after int
	err   error
}

func (c *countdownCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.after > 0 {
		c.after--
		return nil
	}
	return c.err
}

func TestHistoryCapEviction(t *testing.T) {
	h := NewHistory()
	h.SetCap(3)
	if h.Cap() != 3 {
		t.Fatalf("Cap: %d", h.Cap())
	}
	for _, tag := range []string{"a", "b", "c", "d"} {
		h.Add(tag)
	}
	// "a" is the oldest-seen and must be evicted, queue keeps arrival order.
	if got := h.Pending(); !reflect.DeepEqual(got, []string{"b", "c", "d"}) {
		t.Fatalf("pending after eviction: %v", got)
	}
	// An evicted tag is forgotten entirely: adding it again re-queues it
	// (and evicts the new oldest, "b").
	h.Add("a")
	if got := h.Pending(); !reflect.DeepEqual(got, []string{"c", "d", "a"}) {
		t.Fatalf("pending after re-add: %v", got)
	}
}

func TestHistorySetCapShrinksImmediately(t *testing.T) {
	h := NewHistory()
	for _, tag := range []string{"a", "b", "c", "d", "e"} {
		h.Add(tag)
	}
	h.SetCap(2)
	if got := h.Pending(); !reflect.DeepEqual(got, []string{"d", "e"}) {
		t.Fatalf("pending after shrink: %v", got)
	}
	// Cap 0 removes the bound again.
	h.SetCap(0)
	for _, tag := range []string{"f", "g", "h"} {
		h.Add(tag)
	}
	if h.Len() != 5 {
		t.Fatalf("unbounded history len: %d", h.Len())
	}
}

// TestHistoryCapUnbounded pins the regression the cap fixes: without a
// bound the seen-set grows with every distinct tag; with a bound it cannot
// exceed the cap no matter how many tags stream through.
func TestHistoryCapUnbounded(t *testing.T) {
	h := NewHistory()
	h.SetCap(8)
	for i := 0; i < 1000; i++ {
		h.Add(string(rune('a'+i%26)) + string(rune('0'+i%10)))
	}
	if h.Len() > 8 {
		t.Fatalf("capped history holds %d pending tags", h.Len())
	}
	if n := len(h.seen); n > 8 {
		t.Fatalf("capped history remembers %d tags", n)
	}
}

func TestHistoryRequeue(t *testing.T) {
	h := NewHistory()
	for _, tag := range []string{"a", "b", "c"} {
		h.Add(tag)
	}
	drained := h.Drain()
	if h.Len() != 0 {
		t.Fatalf("drain left %d pending", h.Len())
	}
	// A new tag arrives between the drain and the failed build.
	h.Add("d")
	h.Requeue(drained)
	if got := h.Pending(); !reflect.DeepEqual(got, []string{"a", "b", "c", "d"}) {
		t.Fatalf("pending after requeue: %v", got)
	}
	// Requeued tags stay deduplicated: a second requeue is a no-op.
	h.Requeue(drained)
	if h.Len() != 4 {
		t.Fatalf("double requeue duplicated tags: %v", h.Pending())
	}
}

func TestHistoryRequeueSkipsEvicted(t *testing.T) {
	h := NewHistory()
	h.SetCap(2)
	h.Add("a")
	h.Add("b")
	drained := h.Drain()
	// "a" is evicted from memory while the drained build is in flight.
	h.Add("c")
	h.Requeue(drained)
	if got := h.Pending(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("pending after requeue with eviction: %v", got)
	}
}
