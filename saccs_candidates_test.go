package saccs

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"saccs/internal/race"
	"saccs/internal/search"
)

// slotKeys is every objective question ParseUtterance can ask: each cuisine
// and each location of its vocabulary, or none, crossed.
func slotKeys(t *testing.T) []map[string]string {
	t.Helper()
	cuisines := []string{"", "italian", "french", "japanese", "mexican", "indian", "chinese"}
	locations := []string{"", "montreal", "melbourne", "lyon", "paris", "toronto", "sydney"}
	var keys []map[string]string
	for _, cuisine := range cuisines {
		for _, location := range locations {
			slots := search.ParseUtterance(cuisine + " food in " + location).Slots
			if slots[search.SlotCuisine] != cuisine || slots[search.SlotLocation] != location {
				t.Fatalf("slot vocabulary drifted: %q in %q parses to %v", cuisine, location, slots)
			}
			keys = append(keys, slots)
		}
	}
	return keys
}

// checkCandidateMemo compares the memoised candidates of every slot key with
// a fresh objective filter over the current world resolved against the
// current snapshot, twice per key: the first call may fill the memo, the
// second must hit it.
func checkCandidateMemo(t *testing.T, c *Client, step string) {
	t.Helper()
	w := c.w.Load()
	snap := w.ix.Current()
	for _, slots := range slotKeys(t) {
		want := search.NewCandidates(snap, objectiveFilter(w, candidateKey{slots[search.SlotCuisine], slots[search.SlotLocation]}))
		for pass := 0; pass < 2; pass++ {
			if got := w.candidates(slots, snap); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: slots %v pass %d: memo %+v, scan %+v", step, slots, pass, got, want)
			}
		}
	}
}

// TestCandidateMemoMatchesScan walks a client through every step that
// publishes a new world or a new index generation, checking after each that
// the memo answers exactly what a fresh scan answers.
func TestCandidateMemoMatchesScan(t *testing.T) {
	base := goldenIndexedClient(t)
	cfg := DefaultConfig()
	cfg.WALDir = t.TempDir()
	cfg.IngestPublishEvery = -1
	cfg.IngestPublishInterval = -1
	c := cloneForTest(t, base, cfg)
	checkCandidateMemo(t, c, "empty client")
	if err := c.IndexEntities(goldenWorld(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	checkCandidateMemo(t, c, "IndexEntities")

	moved := goldenWorld()[3]
	steps := []struct {
		name string
		do   func() error
	}{
		{"RegisterEntity new", func() error {
			return c.RegisterEntity(Entity{ID: "zz-new", City: "PARIS", Cuisine: "fReNcH"})
		}},
		{"RegisterEntity moved", func() error {
			return c.RegisterEntity(Entity{ID: moved.ID, Name: moved.Name, City: "Lyon", Cuisine: moved.Cuisine})
		}},
		{"AppendReview stub", func() error { return c.AppendReview("aa-stub", "The food is delicious.") }},
		{"refused AppendReview", func() error {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := c.AppendReviewCtx(ctx, "ghost", "The food is delicious."); err == nil {
				return fmt.Errorf("append with a cancelled context was acknowledged")
			}
			if _, ok := c.Entity("ghost"); ok {
				return fmt.Errorf("refused append left its stub behind")
			}
			return nil
		}},
		{"Quiesce", c.Quiesce},
		{"AppendReview known + Quiesce", func() error {
			if err := c.AppendReview(moved.ID, "Really good food and nice staff."); err != nil {
				return err
			}
			return c.Quiesce()
		}},
	}
	for _, s := range steps {
		gen := c.w.Load().ix.Current().Generation()
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if s.name == "Quiesce" && c.w.Load().ix.Current().Generation() == gen {
			t.Fatalf("Quiesce published no generation")
		}
		checkCandidateMemo(t, c, s.name)
	}

	var saved bytes.Buffer
	if err := base.SaveIndex(&saved); err != nil {
		t.Fatal(err)
	}
	if err := c.LoadIndex(&saved); err != nil {
		t.Fatal(err)
	}
	checkCandidateMemo(t, c, "LoadIndex")

	// WAL recovery rebuilds the world from the checkpoint and log.
	c.Shutdown()
	recovered := cloneForTest(t, base, cfg)
	defer recovered.Shutdown()
	for _, id := range []string{"zz-new", "aa-stub", moved.ID} {
		if _, ok := recovered.Entity(id); !ok {
			t.Fatalf("recovery lost %s", id)
		}
	}
	checkCandidateMemo(t, recovered, "WAL recovery")
}

// TestCandidateMemoRace races slot-filtered queries and QueryTags against
// RegisterEntity, AppendReview and Quiesce. Every answer must satisfy its
// slots (no registered entity ever changes them), and once the writers stop
// the memo must still equal a fresh scan.
func TestCandidateMemoRace(t *testing.T) {
	base := goldenIndexedClient(t)
	cfg := DefaultConfig()
	cfg.IngestPublishEvery = 4
	cfg.IngestPublishInterval = -1
	c := cloneForTest(t, base, cfg)
	if err := c.IndexEntities(goldenWorld(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	queries := []struct{ utterance, cuisine, city string }{
		{"an italian place in paris with delicious food", "Italian", "Paris"},
		{"french food in montreal with nice staff", "French", "Montreal"},
		{"an italian restaurant in montreal with delicious food", "Italian", "Montreal"},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if n%4 == 3 {
					if _, err := c.QueryTagsCtx(context.Background(), []string{"delicious food"}); err != nil {
						t.Errorf("QueryTags: %v", err)
						return
					}
					continue
				}
				q := queries[(n+g)%len(queries)]
				resp, err := c.QueryCtx(context.Background(), q.utterance)
				if err != nil {
					t.Errorf("%q: %v", q.utterance, err)
					return
				}
				for _, r := range resp.Results {
					e, ok := c.Entity(r.ID)
					if !ok || !strings.EqualFold(e.Cuisine, q.cuisine) || !strings.EqualFold(e.City, q.city) {
						t.Errorf("%q answered %s (%+v)", q.utterance, r.ID, e)
						return
					}
				}
			}
		}(g)
	}
	cities := []string{"PARIS", "montreal"}
	cuisines := []string{"italian", "French"}
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("race-%02d", i)
		if err := c.RegisterEntity(Entity{ID: id, City: cities[i%2], Cuisine: cuisines[i/2%2]}); err != nil {
			t.Errorf("register %s: %v", id, err)
			break
		}
		if err := c.AppendReview(id, "The food is delicious and the staff is friendly."); err != nil {
			t.Errorf("append %s: %v", id, err)
			break
		}
		if i%8 == 7 {
			if err := c.Quiesce(); err != nil {
				t.Errorf("quiesce: %v", err)
				break
			}
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
	checkCandidateMemo(t, c, "after the race")
}

// TestQueryCostIndependentOfBareEntities: entities with no City or Cuisine
// (the stubs a review stream registers) are never candidates of a two-slot
// query, so they must not cost it anything — the same allocations and, within
// noise, the same bytes as a client without them.
func TestQueryCostIndependentOfBareEntities(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop items and allocates on its own behalf")
	}
	base := goldenIndexedClient(t)
	const utterance = "I want an Italian restaurant in Montreal with delicious food"
	type cost struct{ allocs, bytes float64 }
	measure := func(stubs int) cost {
		c := cloneForTest(t, base, DefaultConfig())
		if err := c.IndexEntities(goldenWorld(), c.CanonicalTags()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < stubs; i++ {
			if err := c.RegisterEntity(Entity{ID: fmt.Sprintf("stub-%04d", i)}); err != nil {
				t.Fatal(err)
			}
		}
		query := func() {
			if resp, err := c.QueryCtx(context.Background(), utterance); err != nil || len(resp.Results) != c.cfg.TopK {
				t.Fatalf("query: %d results, %v", len(resp.Results), err)
			}
		}
		query()
		const runs = 400
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		return cost{allocs: testing.AllocsPerRun(runs, query), bytes: float64(after.TotalAlloc-before.TotalAlloc) / runs}
	}
	bare, stubbed := measure(0), measure(2000)
	if stubbed.allocs != bare.allocs || stubbed.bytes > bare.bytes+512 {
		t.Fatalf("2000 bare entities: %v allocs, %.0f B per query; without them %v allocs, %.0f B",
			stubbed.allocs, stubbed.bytes, bare.allocs, bare.bytes)
	}
}
