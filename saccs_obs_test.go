package saccs

import (
	"strings"
	"sync"
	"testing"

	"saccs/internal/obs"
)

// TestQueryTraceStages checks the tentpole acceptance shape: one traced
// Client.Query produces a root "query" span with at least five named child
// stages covering the whole pipeline.
func TestQueryTraceStages(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing[obs.SpanRecord](256)
	c.SetTraceSink(ring)
	defer c.SetTraceSink(nil)

	c.Query("I want an Italian restaurant in Montreal with delicious food and friendly staff")

	spans := ring.All()
	root, ok := obs.LastRoot(spans)
	if !ok {
		t.Fatal("no root span recorded")
	}
	if root.Name != "query" {
		t.Fatalf("root span name: %q", root.Name)
	}
	stages := map[string]bool{}
	for _, s := range obs.Subtree(spans, root.ID) {
		if s.Parent == root.ID {
			stages[s.Name] = true
		}
	}
	for _, want := range []string{"parse", "tagger.decode", "pairing.pairs", "objective", "rank"} {
		if !stages[want] {
			t.Errorf("missing stage span %q (got %v)", want, stages)
		}
	}
	if len(stages) < 5 {
		t.Fatalf("want >=5 named child stages, got %d: %v", len(stages), stages)
	}
	if root.Duration <= 0 {
		t.Fatal("root span has no duration")
	}
}

// TestClientStats checks the metrics side of the public surface: query
// counters, per-stage latency histograms, and Prometheus exposition.
func TestClientStats(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	before := c.Stats().Counters["query.total"]
	c.Query("a restaurant in Montreal with delicious food")
	snap := c.Stats()
	if got := snap.Counters["query.total"]; got != before+1 {
		t.Fatalf("query.total: %d -> %d", before, got)
	}
	if snap.Histograms["query.latency"].Count == 0 {
		t.Fatal("query.latency histogram is empty")
	}
	for _, h := range []string{"stage.parse", "stage.tagger.decode", "stage.objective", "stage.rank"} {
		if snap.Histograms[h].Count == 0 {
			t.Errorf("histogram %s is empty", h)
		}
	}
	if snap.Histograms["index.build"].Count == 0 {
		t.Error("index.build histogram is empty")
	}

	var sb strings.Builder
	c.Observer().Metrics.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{"query_total", `stage_parse_seconds{quantile="0.99"}`, "query_latency_seconds_sum"} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %s", want)
		}
	}
}

// TestConcurrentQueries exercises the documented concurrency contract under
// the race detector: parallel Query/QueryTags/ExtractTags/TagLabels calls
// against one shared index with tracing and metrics enabled.
func TestConcurrentQueries(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing[obs.SpanRecord](512)
	c.SetTraceSink(ring)
	defer c.SetTraceSink(nil)

	before := c.Stats().Counters["query.total"]
	const goroutines, perG = 8, 5
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch (g + i) % 4 {
				case 0:
					c.Query("an Italian restaurant in Montreal with delicious food")
				case 1:
					c.Query("a place with friendly staff and a quiet atmosphere")
				case 2:
					c.QueryTags([]string{"creative cooking"})
					c.ExtractTags("the staff is friendly")
				default:
					c.TagLabels("the food is delicious")
					c.CorrectTag("delicous food")
					c.Query("good food in Montreal")
				}
			}
		}(g)
	}
	wg.Wait()

	got := c.Stats().Counters["query.total"] - before
	want := int64(goroutines*perG - goroutines*perG/4) // case 2 runs no Query
	if got < want {
		t.Fatalf("query.total grew by %d, want >= %d", got, want)
	}
	if _, ok := obs.LastRoot(ring.All()); !ok {
		t.Fatal("no spans recorded under concurrency")
	}
}
