package shard

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"saccs/internal/index"
	"saccs/internal/search"
	"saccs/internal/sim"
)

// flatSim scores phrase pairs by token overlap — cheap and deterministic,
// the same stand-in the ingest tests use.
var flatSim = sim.PhraseFunc(func(a, b string) float64 {
	if a == b {
		return 1
	}
	fa, fb := map[string]bool{}, map[string]bool{}
	for _, w := range splitWords(a) {
		fa[w] = true
	}
	for _, w := range splitWords(b) {
		fb[w] = true
	}
	n := 0
	for w := range fa {
		if fb[w] {
			n++
		}
	}
	d := len(fa) + len(fb) - n
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
})

func splitWords(s string) []string {
	var out []string
	w := ""
	for _, r := range s {
		if r == ' ' {
			if w != "" {
				out = append(out, w)
			}
			w = ""
			continue
		}
		w += string(r)
	}
	if w != "" {
		out = append(out, w)
	}
	return out
}

var testTags = []string{"good food", "nice staff", "cozy place", "fair prices", "fast service", "great view"}

func worldOf(n int, seed int64) []index.EntityReviews {
	rng := rand.New(rand.NewSource(seed))
	out := make([]index.EntityReviews, n)
	for i := range out {
		er := index.EntityReviews{EntityID: fmt.Sprintf("e%03d", i), ReviewCount: 1 + rng.Intn(5)}
		for r := 0; r < er.ReviewCount; r++ {
			er.Tags = append(er.Tags, testTags[rng.Intn(len(testTags))])
		}
		out[i] = er
	}
	return out
}

func newIndex() *index.Index { return index.New(flatSim, 0.3) }

// TestOwnerStability checks the consistent-hashing contract: growing the
// shard count from n to n+1 moves entities only onto the new shard.
func TestOwnerStability(t *testing.T) {
	ids := make([]string, 500)
	for i := range ids {
		ids[i] = fmt.Sprintf("entity-%04d", i)
	}
	for n := 1; n < 8; n++ {
		moved := 0
		for _, id := range ids {
			a, b := Owner(id, n), Owner(id, n+1)
			if a != b {
				if b != n {
					t.Fatalf("Owner(%q): %d shards -> %d, %d shards -> %d; moved to an old shard", id, n, a, n+1, b)
				}
				moved++
			}
		}
		// Expect roughly 1/(n+1) of keys to move; allow generous slack.
		if frac := float64(moved) / float64(len(ids)); frac > 2.5/float64(n+1) {
			t.Fatalf("%d -> %d shards moved %.2f of keys, want ~%.2f", n, n+1, frac, 1/float64(n+1))
		}
	}
}

func TestOwnerSpread(t *testing.T) {
	counts := make([]int, 4)
	for i := 0; i < 2000; i++ {
		counts[Owner(fmt.Sprintf("e%05d", i), 4)]++
	}
	for s, c := range counts {
		if c < 2000/4/2 || c > 2000/4*2 {
			t.Fatalf("shard %d holds %d of 2000 keys; partition badly skewed: %v", s, c, counts)
		}
	}
}

// TestShardedMatchesUnsharded is the core byte-identity property: for any
// shard count, TopK over the router equals ranking the unsharded index, for
// exact tags, unknown (similar-union) tags, truncation, and the zero-tag
// pass-through over ID-sorted API results.
func TestShardedMatchesUnsharded(t *testing.T) {
	ents := worldOf(120, 7)
	single := newIndex()
	single.Build(testTags[:4], ents)

	var api []string
	for _, e := range ents {
		api = append(api, e.EntityID)
	}
	sort.Strings(api)

	queries := [][]string{
		{"good food"},
		{"good food", "nice staff"},
		{"tasty food"}, // unknown: similar-union path
		{"good food", "friendly staff", "cozy place"},
		{},
	}
	for _, n := range []int{1, 2, 3, 5, 8} {
		r := New(n, search.MeanAgg, newIndex)
		r.Build(testTags[:4], ents)
		view := r.Pin()
		for _, q := range queries {
			for _, k := range []int{0, 3, 10, 1000} {
				ranker := &search.Ranker{Snap: single.Current(), ThetaFilter: 0.25, Agg: search.MeanAgg}
				want, err := ranker.RankCtx(context.Background(), nil, api, q)
				if err != nil {
					t.Fatal(err)
				}
				want = search.Truncate(want, k)
				got, err := view.TopK(context.Background(), nil, api, q, 0.25, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("shards=%d q=%v k=%d: %d results, want %d", n, q, k, len(got), len(want))
				}
				for i := range want {
					if want[i] != got[i] {
						t.Fatalf("shards=%d q=%v k=%d: result %d = %+v, want %+v", n, q, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestShardedResolveMatches checks that the shards' Resolve results, merged
// under the posting order, are the unsharded Snapshot.Resolve for exact and
// similar-union probes: each entity's degree is computed from its own reviews
// alone and entities are disjoint across shards.
func TestShardedResolveMatches(t *testing.T) {
	ents := worldOf(80, 11)
	single := newIndex()
	single.Build(testTags[:4], ents)
	r := New(3, search.MeanAgg, newIndex)
	r.Build(testTags[:4], ents)
	for _, tag := range []string{"good food", "tasty food", "absent"} {
		want := single.Current().Resolve(tag, 0.25)
		var got []index.Entry
		for i := 0; i < r.N(); i++ {
			got = append(got, r.Shard(i).Resolve(tag, 0.25)...)
		}
		sort.Slice(got, func(i, j int) bool {
			if got[i].Degree != got[j].Degree {
				return got[i].Degree > got[j].Degree
			}
			return got[i].EntityID < got[j].EntityID
		})
		if len(got) != len(want) {
			t.Fatalf("Resolve(%q): %d entries, want %d", tag, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("Resolve(%q)[%d] = %+v, want %+v", tag, i, got[i], want[i])
			}
		}
	}
}

// TestPinIsStable verifies the generation-vector contract: a pinned view's
// results do not change while shards republish underneath it, and a fresh
// pin observes the higher generation.
func TestPinIsStable(t *testing.T) {
	ents := worldOf(60, 3)
	r := New(4, search.MeanAgg, newIndex)
	r.Build(testTags[:3], ents)
	view := r.Pin()
	var api []string
	for _, e := range ents {
		api = append(api, e.EntityID)
	}
	sort.Strings(api)
	before, err := view.TopK(context.Background(), nil, api, []string{"good food"}, 0.25, 10)
	if err != nil {
		t.Fatal(err)
	}
	gen := view.Generation()

	// Republish one shard with different contents and a new generation.
	r.Shard(1).Build(testTags[:3], nil)
	after, err := view.TopK(context.Background(), nil, api, []string{"good food"}, 0.25, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("pinned view changed under republish: %+v -> %+v", before[i], after[i])
		}
	}
	if view.Generation() != gen {
		t.Fatalf("pinned generation moved: %d -> %d", view.Generation(), gen)
	}
	if fresh := r.Pin().Generation(); fresh <= gen {
		t.Fatalf("fresh pin generation %d not above %d after republish", fresh, gen)
	}
}

// TestTopKCancellation: a cancelled context aborts the scatter with the
// context's error and no partial results.
func TestTopKCancellation(t *testing.T) {
	ents := worldOf(100, 5)
	r := New(4, search.MeanAgg, newIndex)
	r.Build(testTags[:4], ents)
	view := r.Pin()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var api []string
	for _, e := range ents {
		api = append(api, e.EntityID)
	}
	out, err := view.TopK(ctx, nil, api, []string{"good food"}, 0.25, 10)
	if err == nil || out != nil {
		t.Fatalf("TopK on cancelled ctx: out=%v err=%v, want nil results and ctx error", out, err)
	}
}

// pollCtx reports cancellation from its (after+1)th Err poll on, and counts
// the polls.
type pollCtx struct {
	context.Context
	polls, after int
}

func (c *pollCtx) Err() error {
	c.polls++
	if c.polls > c.after {
		return context.Canceled
	}
	return nil
}

// TestTopKCancelBetweenShards: a context that turns cancelled once the first
// shard has ranked yields the context's error and never the first shard's
// list as a partial answer. The number of polls ranking shard 0 takes is
// counted on a query over shard 0's entities alone.
func TestTopKCancelBetweenShards(t *testing.T) {
	ents := worldOf(100, 5)
	r := New(4, search.MeanAgg, newIndex)
	r.Build(testTags[:4], ents)
	view := r.Pin()
	var api, first []string
	for _, e := range ents {
		api = append(api, e.EntityID)
		if r.Owner(e.EntityID) == 0 {
			first = append(first, e.EntityID)
		}
	}
	tags := []string{"good food", "tasty food"} // an exact and a similar-union probe
	count := &pollCtx{Context: context.Background(), after: 1 << 30}
	if out, err := view.TopK(count, nil, first, tags, 0.25, 10); err != nil || len(out) == 0 {
		t.Fatalf("TopK over shard 0: out=%v err=%v", out, err)
	}
	ctx := &pollCtx{Context: context.Background(), after: count.polls}
	out, err := view.TopK(ctx, nil, api, tags, 0.25, 10)
	if err != context.Canceled || out != nil {
		t.Fatalf("TopK cancelled after shard 0: out=%v err=%v, want nil results and context.Canceled", out, err)
	}
	if ctx.polls != count.polls+1 {
		t.Fatalf("TopK polled %d times after the cancellation", ctx.polls-count.polls-1)
	}
}

// TestConcurrentPinsUnderRebuild races queries through pinned views against
// continuous per-shard rebuilds; with -race this doubles as a data-race probe.
func TestConcurrentPinsUnderRebuild(t *testing.T) {
	ents := worldOf(90, 9)
	r := New(3, search.MeanAgg, newIndex)
	r.Build(testTags[:4], ents)
	single := newIndex()
	single.Build(testTags[:4], ents)
	var api []string
	for _, e := range ents {
		api = append(api, e.EntityID)
	}
	sort.Strings(api)
	ranker := &search.Ranker{Snap: single.Current(), ThetaFilter: 0.25, Agg: search.MeanAgg}
	want, err := ranker.RankCtx(context.Background(), nil, api, []string{"good food", "nice staff"})
	if err != nil {
		t.Fatal(err)
	}
	want = search.Truncate(want, 10)

	stop := make(chan struct{})
	var rebuilder sync.WaitGroup
	rebuilder.Add(1)
	go func() {
		defer rebuilder.Done()
		parts := r.Partition(ents)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := i % 3
			r.Shard(s).Build(testTags[:4], parts[s])
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				got, err := r.Pin().TopK(context.Background(), nil, api, []string{"good food", "nice staff"}, 0.25, 10)
				if err != nil {
					t.Error(err)
					return
				}
				for j := range want {
					if want[j] != got[j] {
						t.Errorf("racing rebuild diverged at %d: %+v want %+v", j, got[j], want[j])
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	rebuilder.Wait()
}
