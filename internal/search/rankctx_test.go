package search

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"saccs/internal/index"
	"saccs/internal/obs"
	"saccs/internal/race"
	"saccs/internal/sim"
)

// countdownCtx reports no error for the first `after` Err() polls, then the
// configured error forever. RankCtx and the snapshot probes cancel purely by
// polling Err(), so the countdown deterministically places an expiry at the
// Nth poll without any real clock.
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

func TestRankCtxCancelledReturnsNoPartialResults(t *testing.T) {
	r := &Ranker{Snap: buildIndex().Current(), ThetaFilter: 0.5}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := r.RankCtx(ctx, nil, []string{"vue", "hut", "anchovy"}, []string{"good food"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error: %v", err)
	}
	if out != nil {
		t.Fatalf("partial results on cancellation: %v", out)
	}
}

// TestTopKRejectsStaleCandidates: Candidates resolved against one generation
// must not rank against another — with or without tags — and resolving them
// again against the new generation ranks as Rank does.
func TestTopKRejectsStaleCandidates(t *testing.T) {
	ix := buildIndex()
	before := ix.Current()
	api := []string{"anchovy", "hut", "vue"}
	stale := NewCandidates(before, api)
	ix.AddTag("tasty food", []index.EntityReviews{{EntityID: "vue", ReviewCount: 10, Tags: []string{"tasty food"}}})
	r := &Ranker{Snap: ix.Current(), ThetaFilter: 0.5}
	if stale.Generation() == r.Snap.Generation() {
		t.Fatalf("fixture: AddTag kept generation %d", stale.Generation())
	}
	for _, tags := range [][]string{{"good food"}, nil} {
		if out, err := r.TopK(context.Background(), nil, stale, tags, 0); !errors.Is(err, ErrStaleCandidates) || out != nil {
			t.Fatalf("tags %v: stale candidates ranked: %v, %v", tags, out, err)
		}
	}
	got, err := r.TopK(context.Background(), nil, NewCandidates(r.Snap, api), []string{"good food"}, 0)
	if err != nil || !reflect.DeepEqual(got, r.Rank(api, []string{"good food"})) {
		t.Fatalf("fresh candidates: %v, %v", got, err)
	}
}

// TestRankCtxDeadlineObservedMidRank sweeps the expiry across every poll
// point of a multi-tag ranking (n = 0, 1, 2, …): wherever the deadline
// lands, the call must fail with the context error and nil results; once n
// exceeds the total poll count, the result must equal the uncancelled
// baseline exactly.
func TestRankCtxDeadlineObservedMidRank(t *testing.T) {
	ix := buildIndex().Current()
	api := []string{"vue", "hut", "anchovy"}
	// "quiet atmosphere" misses the index, forcing a similarity scan probe.
	tags := []string{"good food", "quiet atmosphere", "creative cooking"}
	mk := func() *Ranker { return &Ranker{Snap: ix, ThetaFilter: 0.45} }
	want, err := mk().RankCtx(context.Background(), nil, api, tags)
	if err != nil || len(want) == 0 {
		t.Fatalf("baseline: %v %v", want, err)
	}
	const maxPolls = 1000
	completed := false
	for n := 0; n < maxPolls; n++ {
		ctx := &countdownCtx{Context: context.Background(), after: n, err: context.DeadlineExceeded}
		got, err := mk().RankCtx(ctx, nil, api, tags)
		if err == nil {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d: result diverged from baseline: %v != %v", n, got, want)
			}
			completed = true
			break
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("n=%d: wrong error type: %v", n, err)
		}
		if got != nil {
			t.Fatalf("n=%d: partial results alongside error: %v", n, got)
		}
	}
	if !completed {
		t.Fatalf("ranking still cancelled after %d polls", maxPolls)
	}
}

// paperScaleIndex builds a 280-entity index (the §6.1 candidate count) whose
// entities rotate through a few review-tag mixes, so both an exact and a
// similar-tag probe touch most of them.
func paperScaleIndex() (*index.Snapshot, []string) {
	mixes := [][]string{
		{"good food", "good food", "friendly staff"},
		{"tasty food", "rude staff"},
		{"creative cooking", "good food"},
		{"friendly staff", "friendly staff", "tasty food"},
	}
	es := make([]index.EntityReviews, 280)
	ids := make([]string, len(es))
	for i := range es {
		ids[i] = fmt.Sprintf("e%03d", i)
		es[i] = index.EntityReviews{EntityID: ids[i], ReviewCount: 3 + i%17, Tags: mixes[i%len(mixes)]}
	}
	ix := index.New(sim.NewConceptual(), 0.55)
	ix.Build([]string{"good food", "nice staff", "creative cooking"}, es)
	return ix.Current(), ids
}

// TestRankCtxAllocsRegression pins the steady-state allocation count of a
// rank at paper scale: one exact tag and one similar-tag union over 280
// candidates, top 10. Working memory comes from the pooled scratch, so what
// is left is the result slice (and the closures handed to the probe).
func TestRankCtxAllocsRegression(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop items and allocates on its own behalf")
	}
	snap, ids := paperScaleIndex()
	r := &Ranker{Snap: snap, ThetaFilter: 0.45}
	tags := []string{"good food", "delicious food"}
	if snap.Has(tags[1]) || len(snap.Resolve(tags[1], 0.45)) == 0 {
		t.Fatalf("%q must miss the index and resolve through the similar-tag union", tags[1])
	}
	cands := NewCandidates(snap, ids)
	rank := func() {
		if out, err := r.TopK(context.Background(), nil, cands, tags, 10); err != nil || len(out) != 10 {
			t.Fatalf("rank: %d results, %v", len(out), err)
		}
	}
	rank() // grow the pooled scratch
	if allocs := testing.AllocsPerRun(100, rank); allocs > 4 {
		t.Fatalf("steady-state rank allocates %v times per call, want <= 4", allocs)
	}
}

// TestRankCtxCancelledReturnsScratch: a rank abandoned mid-probe must still
// hand its scratch back to the pool. If it leaked, every cancelled rank would
// build a fresh scratch — two allocations of kilobytes each — which the
// allocation count would show.
func TestRankCtxCancelledReturnsScratch(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop items and allocates on its own behalf")
	}
	snap, ids := paperScaleIndex()
	r := &Ranker{Snap: snap, ThetaFilter: 0.45}
	tags := []string{"good food", "delicious food"}
	cands := NewCandidates(snap, ids)
	if _, err := r.TopK(context.Background(), nil, cands, tags, 10); err != nil {
		t.Fatal(err)
	}
	// Expire at the third poll: after the entry check and the first tag's
	// probe, i.e. with the scratch taken and half filled.
	ctx := &countdownCtx{Context: context.Background(), err: context.DeadlineExceeded}
	cancelled := func() {
		ctx.after = 2
		if out, err := r.TopK(ctx, nil, cands, tags, 10); !errors.Is(err, context.DeadlineExceeded) || out != nil {
			t.Fatalf("mid-rank expiry: %v, %v", out, err)
		}
	}
	if allocs := testing.AllocsPerRun(100, cancelled); allocs > 2 {
		t.Fatalf("a cancelled rank allocates %v times per call: its scratch is not returned to the pool", allocs)
	}
}

// TestTopKIsPrefixOfFullRank: for every k, the bounded selection must equal
// the first k entries of the unbounded order — through the matched entities,
// across the boundary into the ID-ordered tail, and past the end.
func TestTopKIsPrefixOfFullRank(t *testing.T) {
	snap, ids := paperScaleIndex()
	api := append([]string{"zz-unreviewed", "aa-unreviewed", ids[7]}, ids[:40]...) // unsorted, a duplicate, unknown IDs
	for _, agg := range []Aggregation{MeanAgg, ProductAgg, MinAgg} {
		r := &Ranker{Snap: snap, ThetaFilter: 0.45, Agg: agg}
		for _, tags := range [][]string{{"creative cooking"}, {"good food", "delicious food"}, {"no such thing"}} {
			full := r.Rank(api, tags)
			if len(full) != 42 {
				t.Fatalf("agg %v tags %v: full rank has %d entries, want the 42 distinct API results", agg, tags, len(full))
			}
			for k := 1; k <= len(full)+2; k++ {
				got, err := r.TopK(context.Background(), nil, NewCandidates(snap, api), tags, k)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, Truncate(full, k)) {
					t.Fatalf("agg %v tags %v k=%d: top-k %v is not the prefix of the full rank %v", agg, tags, k, got, Truncate(full, k))
				}
			}
		}
	}
}

// TestScratchSharedAcrossIndexesAndGoroutines: the pool hands one scratch to
// ranks over unrelated indexes — different sizes, different ordinal spaces,
// different tag counts — from many goroutines. Nothing may leak from one
// rank into the next: every answer must equal the one computed before any
// interleaving.
func TestScratchSharedAcrossIndexesAndGoroutines(t *testing.T) {
	big, ids := paperScaleIndex()
	small := buildIndex().Current()
	type query struct {
		r    *Ranker
		api  []string
		tags []string
		k    int
	}
	qs := []query{
		{&Ranker{Snap: big, ThetaFilter: 0.45}, ids, []string{"good food", "delicious food"}, 10},
		{&Ranker{Snap: small, ThetaFilter: 0.5}, []string{"vue", "hut", "anchovy", "nobody"}, []string{"good food"}, 0},
		{&Ranker{Snap: big, ThetaFilter: 0.45, Agg: MinAgg}, ids[100:], []string{"creative cooking", "nice staff", "tasty meals"}, 0},
		{&Ranker{Snap: small, ThetaFilter: 0.5, Agg: ProductAgg}, []string{"anchovy", "vue"}, []string{"creative cooking", "quiet atmosphere"}, 1},
	}
	want := make([][]Scored, len(qs))
	for i, q := range qs {
		var err error
		if want[i], err = q.r.TopK(context.Background(), nil, NewCandidates(q.r.Snap, q.api), q.tags, q.k); err != nil || len(want[i]) == 0 {
			t.Fatalf("baseline %d: %v %v", i, want[i], err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				i := (n + g) % len(qs)
				got, err := qs[i].r.TopK(context.Background(), nil, NewCandidates(qs[i].r.Snap, qs[i].api), qs[i].tags, qs[i].k)
				if err != nil || !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d pass %d query %d: %v (%v), want %v", g, n, i, got, err, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRankRepeatedUnknownTag: a query that carries the same unknown tag twice
// keeps one degree cell per position — every matched entity's coverage counts
// both, and the mean of two equal degrees is that degree to the last bit — so
// apart from coverage the ranking is the one-tag ranking; a known tag between
// the two changes nothing about that.
func TestRankRepeatedUnknownTag(t *testing.T) {
	snap, ids := paperScaleIndex()
	r := &Ranker{Snap: snap, ThetaFilter: 0.45}
	const unknown = "delicious food"
	once := r.Rank(ids, []string{unknown})
	twice := r.Rank(ids, []string{unknown, unknown})
	if len(once) != len(ids) || len(twice) != len(ids) {
		t.Fatalf("ranked %d and %d of %d", len(once), len(twice), len(ids))
	}
	matched := 0
	for i := range once {
		want := once[i]
		want.Coverage *= 2
		if twice[i] != want {
			t.Fatalf("rank %d: %+v with the tag repeated, %+v × 2 coverage with it once", i, twice[i], once[i])
		}
		matched += once[i].Coverage
	}
	if matched == 0 {
		t.Fatalf("fixture: %q matched nothing", unknown)
	}
	// With a known tag between the two, each entity's score is the mean of its
	// three cells taken in sorted order, which the one-tag rankings give.
	type cell struct {
		degree   float64
		coverage int
	}
	cells := func(tag string) map[string]cell {
		m := map[string]cell{}
		for _, s := range r.Rank(ids, []string{tag}) {
			m[s.EntityID] = cell{s.Score, s.Coverage}
		}
		return m
	}
	u, g := cells(unknown), cells("good food")
	for _, s := range r.Rank(ids, []string{unknown, "good food", unknown}) {
		vals := []float64{u[s.EntityID].degree, g[s.EntityID].degree, u[s.EntityID].degree}
		slices.Sort(vals)
		want := Scored{EntityID: s.EntityID, Score: (vals[0] + vals[1] + vals[2]) / 3, Coverage: 2*u[s.EntityID].coverage + g[s.EntityID].coverage}
		if s != want {
			t.Fatalf("%+v, want %+v", s, want)
		}
	}
}

// RankCtx is TopK unbounded over apiResults resolved against r.Snap: the
// full total order over apiResults.
func (r *Ranker) RankCtx(ctx context.Context, parent *obs.Span, apiResults []string, tags []string) ([]Scored, error) {
	return r.TopK(ctx, parent, NewCandidates(r.Snap, apiResults), tags, 0)
}
