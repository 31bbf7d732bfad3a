package saccs

import (
	"context"
	"fmt"
	"testing"

	"saccs/internal/race"
)

// TestWarmQueryAllocsRegression pins the allocation count of a warm query at
// the paper's candidate-set size: the golden world plus registered,
// unreviewed entities up to 280 Italian restaurants in Montreal, every one a
// candidate of the utterance. Warm means the utterance's sentences are in the
// extraction cache and the world's candidate memo holds the utterance's slot
// key at the current generation, so what is measured is parse, the cache
// hit, the memo hit, resolve-and-rank and the request telemetry. The memo
// hit allocates nothing and the rank once (the result slice) — with
// per-query maps there it would be hundreds. Most of the rest is the
// tokenizer (one string per token) and the extraction cache key. With no
// trace sink attached, the request builds no span tree: its telemetry is the
// Request itself, the context carrying its trace and the wide event's stage
// map. The slot parser allocates only the Intent's slot map, and the stage
// and request-latency histograms are resolved by cached handle, so recording
// them allocates nothing.
func TestWarmQueryAllocsRegression(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector makes sync.Pool drop items and allocates on its own behalf")
	}
	c := cloneForTest(t, goldenIndexedClient(t), DefaultConfig())
	if err := c.IndexEntities(goldenWorld(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	for i := len(goldenWorld()); i < 280; i++ {
		if err := c.RegisterEntityCtx(context.Background(), Entity{ID: fmt.Sprintf("r%03d", i), City: "Montreal", Cuisine: "Italian"}); err != nil {
			t.Fatal(err)
		}
	}
	// One indexed tag, one that resolves through the similar-tag union.
	const utterance = "I want an Italian restaurant in Montreal with delicious food and helpful waiters"
	query := func() {
		resp, err := c.QueryCtx(context.Background(), utterance)
		if err != nil || len(resp.Results) != c.cfg.TopK || len(resp.Tags) != 2 || len(resp.UnknownTags) != 1 {
			t.Fatalf("query: %d results, tags %v, unknown %v, err %v", len(resp.Results), resp.Tags, resp.UnknownTags, err)
		}
	}
	query()
	if allocs := testing.AllocsPerRun(200, query); allocs > 40 {
		t.Fatalf("warm QueryCtx allocates %v times per call, want <= 40", allocs)
	}
}
