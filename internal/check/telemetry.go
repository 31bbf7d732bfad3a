package check

import (
	"fmt"
	"time"

	"saccs/internal/core"
	"saccs/internal/extcache"
	"saccs/internal/obs"
	"saccs/internal/search"
	"saccs/internal/yelp"
)

// TelemetryOracle checks that observability is inert: the same query stream
// must produce bit-identical responses with no observer attached and with the
// full telemetry stack on — span tracing into a ring, wide events, head
// sampling of every request, a 1ns slow threshold (every request takes the
// slow-log path), and SLO accounting. Telemetry that perturbs tag extraction,
// resolution, or ranking would be a correctness bug wearing an observability
// hat. The oracle also requires the instrumented pass to actually observe the
// workload: one wide event per query, each carrying a non-zero trace ID,
// stage timings, and a retained span tree. queries may not exceed
// obs.EventRingSize, the number of wide events telemetry keeps.
func TelemetryOracle(seed int64, queries int) error {
	if queries > obs.EventRingSize {
		return fmt.Errorf("telemetry oracle: %d queries exceed the %d-event ring", queries, obs.EventRingSize)
	}
	g := NewGen(seed)
	m := checkModel(seed + 4)
	ex := &core.Extractor{Tagger: m, Pairer: checkPairer(), Cache: extcache.New(256)}
	world := yelp.Generate(yelp.Config{
		Entities: 10, MeanReviews: 4, Seed: seed, City: "montreal", Cuisine: "italian",
	})
	svc := core.NewService(world, ex, nil, core.DefaultConfig())
	svc.BuildEntityTags(core.NeuralSource{E: ex})
	svc.IndexTags(svc.CanonicalTags()[:8])

	utterances := make([]string, queries)
	for i := range utterances {
		utterances[i] = g.Utterance()
	}

	type reply struct {
		tags, unknown []string
		results       []search.Scored
	}
	replay := func() []reply {
		out := make([]reply, len(utterances))
		for i, u := range utterances {
			r := svc.Query(u)
			out[i] = reply{tags: r.Tags, unknown: r.UnknownTags, results: r.Results}
		}
		return out
	}

	bare := replay()

	o := obs.NewObserver()
	ring := obs.NewRing[obs.SpanRecord](1024)
	o.SetTracer(obs.NewTracer(ring))
	o.SetTelemetry(obs.NewTelemetry(obs.TelemetryConfig{
		Metrics:       o.Metrics,
		HeadSampleN:   1,
		SlowThreshold: time.Nanosecond,
		SLOTarget:     time.Second,
	}))
	defer o.Telemetry().Close()
	svc.SetObserver(o)

	traced := replay()
	for i := range bare {
		label := func(what string) string {
			return fmt.Sprintf("telemetry-on vs bare %s, query %d (seed %d)", what, i, seed)
		}
		if err := DiffStrings(label("tags"), bare[i].tags, traced[i].tags); err != nil {
			return err
		}
		if err := DiffStrings(label("unknown tags"), bare[i].unknown, traced[i].unknown); err != nil {
			return err
		}
		if err := DiffScored(label("results"), bare[i].results, traced[i].results); err != nil {
			return err
		}
	}

	// The instrumented pass really was instrumented: one wide event per
	// query, each traced, timed, and (with a 1ns threshold) retained.
	evs := o.Telemetry().Events()
	if len(evs) != queries {
		return fmt.Errorf("telemetry oracle (seed %d): %d wide events for %d queries", seed, len(evs), queries)
	}
	for i, ev := range evs {
		switch {
		case ev.Kind != "query":
			return fmt.Errorf("telemetry oracle (seed %d): event %d kind %q, want \"query\"", seed, i, ev.Kind)
		case ev.Trace.IsZero():
			return fmt.Errorf("telemetry oracle (seed %d): event %d has a zero trace ID", seed, i)
		case ev.Duration <= 0:
			return fmt.Errorf("telemetry oracle (seed %d): event %d duration %v", seed, i, ev.Duration)
		case len(ev.Stage) == 0:
			return fmt.Errorf("telemetry oracle (seed %d): event %d has no stage timings", seed, i)
		case !ev.Retained:
			return fmt.Errorf("telemetry oracle (seed %d): event %d not retained under a 1ns slow threshold", seed, i)
		}
	}
	if spans := ring.All(); len(spans) == 0 {
		return fmt.Errorf("telemetry oracle (seed %d): no spans retained despite full sampling", seed)
	}
	return nil
}
