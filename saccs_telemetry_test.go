package saccs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"saccs/internal/check"
	"saccs/internal/extcache"
	"saccs/internal/obs"
	"saccs/internal/obs/promtext"
)

// swapTelemetry attaches a fresh telemetry pipeline to the shared client for
// one test and restores the original afterward. The shared registry is
// untouched — only the event ring and the slow log are per-test.
func swapTelemetry(t *testing.T, c *Client, cfg obs.TelemetryConfig) *obs.Telemetry {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = c.Observer().Metrics
	}
	old := c.Observer().Telemetry()
	tel := obs.NewTelemetry(cfg)
	c.Observer().SetTelemetry(tel)
	t.Cleanup(func() {
		c.Observer().SetTelemetry(old)
		tel.Close()
	})
	return tel
}

// TestTailSamplingAcceptance drives the slow-query log end to end on the
// public surface: a fast request under a 1h threshold yields a wide event but
// no slow-log entry, while a slow request (1ns threshold) and an errored
// request yield wide events with trace IDs and stage timings, span trees in
// the sink, and slow-log entries visible through Stats().Slow,
// SlowQueries(), and the /debug/slow endpoint.
func TestTailSamplingAcceptance(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing[obs.SpanRecord](256)
	c.SetTraceSink(ring)
	defer c.SetTraceSink(nil)

	// Phase 1: an unreachable threshold — a normal query is observed (wide
	// event) but not slow-logged.
	swapTelemetry(t, c, obs.TelemetryConfig{SlowThreshold: time.Hour})
	c.Query("an Italian restaurant in Montreal with delicious food")
	evs := c.Observer().Telemetry().Events()
	if len(evs) != 1 {
		t.Fatalf("%d wide events, want 1", len(evs))
	}
	if ev := evs[0]; ev.Kind != "query" || ev.Trace.IsZero() {
		t.Fatalf("fast request event: %+v", ev)
	}
	if slow := c.SlowQueries(); len(slow) != 0 {
		t.Fatalf("fast request entered the slow log: %+v", slow)
	}

	// Phase 2: a 1ns threshold makes the same query slow — span tree, stage
	// timings, and a slow-log entry on every surface.
	tel := swapTelemetry(t, c, obs.TelemetryConfig{SlowThreshold: time.Nanosecond})
	c.Query("an Italian restaurant in Montreal with delicious food")
	evs = tel.Events()
	if len(evs) != 1 {
		t.Fatalf("%d wide events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Trace.IsZero() || ev.Duration <= 0 || ev.Results == 0 {
		t.Fatalf("slow request event: %+v", ev)
	}
	for _, stage := range []string{"parse", "tagger.decode", "objective", "rank"} {
		if _, ok := ev.Stage[stage]; !ok {
			t.Errorf("wide event missing stage %q: %v", stage, ev.Stage)
		}
	}
	spans := ring.All()
	root, ok := obs.LastRoot(spans)
	if !ok || root.Name != "query" {
		t.Fatalf("slow request span tree: root %+v ok=%v", root, ok)
	}
	if root.Trace != ev.Trace {
		t.Fatalf("span trace %s != event trace %s", root.Trace, ev.Trace)
	}
	if got := len(obs.Subtree(spans, root.ID)); got < 5 {
		t.Fatalf("slow request span tree has %d spans, want >= 5", got)
	}

	// The slow-log entry is the same event on every surface.
	checkSlow := func(name string, slow []obs.Event) {
		t.Helper()
		if len(slow) != 1 || slow[0].Trace != ev.Trace {
			t.Fatalf("%s: %+v, want the slow query with trace %s", name, slow, ev.Trace)
		}
	}
	checkSlow("SlowQueries()", c.SlowQueries())
	checkSlow("Stats().Slow", c.Stats().Slow)
	srv := httptest.NewServer(obs.ObserverMux(c.Observer()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fromHTTP []obs.Event
	if err := json.NewDecoder(resp.Body).Decode(&fromHTTP); err != nil {
		t.Fatal(err)
	}
	checkSlow("/debug/slow", fromHTTP)

	// Phase 3: a cancelled request is slow-logged as an error even under an
	// unreachable threshold.
	tel = swapTelemetry(t, c, obs.TelemetryConfig{SlowThreshold: time.Hour})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.QueryCtx(ctx, "delicious food"); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled query error: %v", err)
	}
	evs = tel.Events()
	if len(evs) != 1 || evs[0].Status != "cancelled" {
		t.Fatalf("cancelled request events: %+v", evs)
	}
	if len(tel.SlowQueries()) != 1 {
		t.Fatalf("cancelled request missing from the slow log")
	}
}

// TestGoldenQueriesWithSampling replays the golden utterances with the full
// telemetry stack on — tracing into a ring and a 1ns slow threshold (every
// request takes the slow-log path) — and compares against the committed snapshots: telemetry must
// never perturb results.
func TestGoldenQueriesWithSampling(t *testing.T) {
	c := newClient(t)
	// Earlier tests may have re-indexed the demo entities on the shared
	// client; the snapshots are pinned against the golden world.
	if err := c.IndexEntities(goldenWorld(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing[obs.SpanRecord](1024)
	c.SetTraceSink(ring)
	defer c.SetTraceSink(nil)
	swapTelemetry(t, c, obs.TelemetryConfig{SlowThreshold: time.Nanosecond})
	for _, tc := range goldenUtterances {
		t.Run(tc.name, func(t *testing.T) {
			got := snapshotResponse(tc.utterance, c.Query(tc.utterance))
			data, err := os.ReadFile(goldenPath(tc.name))
			if err != nil {
				t.Fatalf("missing golden snapshot (run TestGoldenQueries -update first): %v", err)
			}
			var want goldenResponse
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			compareGolden(t, want, got)
		})
	}
}

// TestTelemetryInert checks that observability is inert on generated
// traffic: the same utterance stream must produce identical tags, unknown
// tags and ranked results with no trace sink and default telemetry, and with
// the full stack on — span tracing into a ring and a 1ns slow threshold
// (every request takes the slow-log path). The instrumented pass must also
// really observe the workload: one wide event per query, each with a trace
// ID and stage timings. The client is a clone of the shared one with the first eight
// canonical tags indexed, so unknown tags reach the similar-tag union and
// the history.
func TestTelemetryInert(t *testing.T) {
	const queries = 16
	base := newClient(t)
	for _, seed := range []int64{1, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			c := cloneForTest(t, base, DefaultConfig())
			if err := c.IndexEntities(goldenWorld(), c.CanonicalTags()[:8]); err != nil {
				t.Fatal(err)
			}
			g := check.NewGen(seed)
			utterances := make([]string, queries)
			for i := range utterances {
				utterances[i] = g.Utterance()
			}
			replay := func() []Response {
				out := make([]Response, len(utterances))
				for i, u := range utterances {
					out[i] = c.Query(u)
				}
				return out
			}

			bare := replay()
			ring := NewRingSink(1024)
			c.SetTraceSink(ring)
			defer c.SetTraceSink(nil)
			tel := swapTelemetry(t, c, obs.TelemetryConfig{SlowThreshold: time.Nanosecond})
			traced := replay()
			tagged := 0
			for i := range bare {
				if len(bare[i].Tags) > 0 {
					tagged++
				}
				b, tr := bare[i], traced[i]
				if fmt.Sprint(b.Tags, b.UnknownTags, b.Results) != fmt.Sprint(tr.Tags, tr.UnknownTags, tr.Results) {
					t.Fatalf("query %d %q: telemetry changed the answer\nbare:   %v %v %v\ntraced: %v %v %v",
						i, utterances[i], b.Tags, b.UnknownTags, b.Results, tr.Tags, tr.UnknownTags, tr.Results)
				}
			}
			if tagged == 0 {
				t.Fatal("no generated utterance extracted a tag; the comparison is vacuous")
			}

			evs := tel.Events()
			if len(evs) != queries {
				t.Fatalf("%d wide events for %d queries", len(evs), queries)
			}
			for i, ev := range evs {
				if ev.Kind != "query" || ev.Trace.IsZero() || ev.Duration <= 0 || len(ev.Stage) == 0 {
					t.Fatalf("event %d not fully observed under a 1ns slow threshold: %+v", i, ev)
				}
			}
			if len(ring.All()) == 0 {
				t.Fatal("no spans reached the attached sink")
			}
		})
	}
}

// TestWideEventsIndependentOfSink checks that a query's wide event does not
// depend on whether a trace sink is attached. With no sink the request builds
// no span tree and its stages time themselves straight into the event; with
// a RingSink they are spans, delivered as they end. The same utterances must
// yield events with the same stage keys, cache hits and misses, tag, unknown
// and result counts, and generation. Each pass runs on its own clone with a
// fresh extraction cache, so both meet the same misses and hits; the first
// eight canonical tags leave some query tags unknown.
func TestWideEventsIndependentOfSink(t *testing.T) {
	base := newClient(t)
	utterances := []string{
		"I want an Italian restaurant in Montreal with delicious food and helpful waiters",
		"a place with friendly staff. The pizza should be amazing!",
		"I want an Italian restaurant in Montreal with delicious food and helpful waiters",
		"somewhere romantic please",
		"a place with friendly staff. The pizza should be amazing!",
		"French food in Paris with a quiet atmosphere",
	}
	run := func(sink obs.SpanSink) []obs.Event {
		t.Helper()
		c := cloneForTest(t, base, DefaultConfig())
		defer c.Shutdown()
		extr := *c.extr
		extr.Cache = extcache.New(64)
		c.extr = &extr
		if err := c.IndexEntities(goldenWorld(), c.CanonicalTags()[:8]); err != nil {
			t.Fatal(err)
		}
		c.SetTraceSink(sink)
		for _, u := range utterances {
			c.Query(u)
		}
		return c.Observer().Telemetry().Events()
	}
	bare := run(nil)
	ring := NewRingSink(1024)
	traced := run(ring)
	if len(ring.All()) == 0 {
		t.Fatal("the RingSink pass recorded no spans")
	}
	if len(bare) != len(utterances) || len(traced) != len(utterances) {
		t.Fatalf("%d and %d wide events for %d queries", len(bare), len(traced), len(utterances))
	}
	stageKeys := func(ev obs.Event) []string {
		keys := make([]string, 0, len(ev.Stage))
		for k := range ev.Stage {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	hits, misses, unknown := 0, 0, 0
	for i := range bare {
		b, tr := bare[i], traced[i]
		if b.Kind != "query" || len(b.Stage) == 0 {
			t.Fatalf("query %d: no-sink event not observed: %+v", i, b)
		}
		if bk, tk := stageKeys(b), stageKeys(tr); fmt.Sprint(bk) != fmt.Sprint(tk) {
			t.Errorf("query %d: stage keys %v without a sink, %v with one", i, bk, tk)
		}
		if b.CacheHits != tr.CacheHits || b.CacheMisses != tr.CacheMisses {
			t.Errorf("query %d: cache hits/misses %d/%d without a sink, %d/%d with one",
				i, b.CacheHits, b.CacheMisses, tr.CacheHits, tr.CacheMisses)
		}
		if b.Tags != tr.Tags || b.Unknown != tr.Unknown || b.Results != tr.Results || b.Generation != tr.Generation {
			t.Errorf("query %d: tags/unknown/results/generation %d/%d/%d/%d without a sink, %d/%d/%d/%d with one",
				i, b.Tags, b.Unknown, b.Results, b.Generation, tr.Tags, tr.Unknown, tr.Results, tr.Generation)
		}
		hits, misses, unknown = hits+b.CacheHits, misses+b.CacheMisses, unknown+b.Unknown
	}
	if hits == 0 || misses == 0 || unknown == 0 {
		t.Fatalf("the comparison is vacuous: %d cache hits, %d misses, %d unknown tags", hits, misses, unknown)
	}
}

// TestClientStatsHDRAndSLO checks the latency-accounting surface: the
// request-latency quantiles appear in Stats().Histograms and the full
// /metrics payload — p50/p90/p99/p999 summaries for request.latency.query and
// every stage.* histogram — parses under the Prometheus exposition grammar.
// No slo_* series is exported.
func TestClientStatsHDRAndSLO(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	swapTelemetry(t, c, obs.TelemetryConfig{})
	const n = 5
	for i := 0; i < n; i++ {
		c.Query("a place with friendly staff")
	}
	snap := c.Stats()
	lat, ok := snap.Histograms["request.latency.query"]
	if !ok || lat.Count < n {
		t.Fatalf("request.latency.query histogram: count=%d ok=%v", lat.Count, ok)
	}
	p50, p99, p999 := lat.Quantile(0.5), lat.Quantile(0.99), lat.Quantile(0.999)
	if p50 <= 0 || p99 < p50 || p999 < p99 {
		t.Fatalf("quantiles out of order: p50=%v p99=%v p999=%v", p50, p99, p999)
	}

	srv, err := c.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if err := promtext.Validate(io.TeeReader(resp.Body, &sb)); err != nil {
		t.Fatalf("/metrics fails the exposition grammar: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		`request_latency_query_seconds{quantile="0.5"}`,
		`request_latency_query_seconds{quantile="0.99"}`,
		`request_latency_query_seconds{quantile="0.999"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(out, "slo_") {
		t.Error("/metrics exports an slo_* series")
	}
	for name := range snap.Histograms {
		if !strings.HasPrefix(name, "stage.") && !strings.HasPrefix(name, "request.latency.") {
			continue
		}
		series := strings.NewReplacer(".", "_", "-", "_").Replace(name) + "_seconds"
		for _, q := range []string{"0.5", "0.9", "0.99", "0.999"} {
			if want := series + `{quantile="` + q + `"}`; !strings.Contains(out, want) {
				t.Errorf("/metrics missing %s", want)
			}
		}
	}
}

// TestConfigTelemetryKnobs proves the Config plumbing end to end with one
// dedicated client: SlowThreshold arms the slow log, and the readiness
// lifecycle follows index
// publication — not ready before the first IndexEntities, ready after,
// permanently not ready after Shutdown.
func TestConfigTelemetryKnobs(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a second pipeline")
	}
	cfg := DefaultConfig()
	cfg.SlowThreshold = time.Nanosecond
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	srv, err := c.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	readyz := func() int {
		resp, err := http.Get("http://" + srv.Addr + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before first index publication: %d, want 503", code)
	}
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	if code := readyz(); code != http.StatusOK {
		t.Fatalf("readyz after IndexEntities: %d, want 200", code)
	}

	c.Query("a restaurant with delicious food")
	evs := c.Observer().Telemetry().Events()
	if len(evs) == 0 {
		t.Fatal("no wide events with telemetry knobs set")
	}
	last := evs[len(evs)-1]
	if last.Kind != "query" || last.Trace.IsZero() {
		t.Fatalf("knob-armed query event: %+v", last)
	}
	if len(c.SlowQueries()) == 0 {
		t.Fatal("1ns SlowThreshold produced no slow-log entries")
	}

	c.Shutdown()
	if code := readyz(); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after Shutdown: %d, want 503", code)
	}
	// Shutdown only signals drain; the client still answers.
	if resp := c.Query("a place with delicious food"); len(resp.Tags) == 0 {
		t.Fatal("client stopped answering after Shutdown")
	}
}

// TestTraceSinkSwapRace races Query traffic against concurrent SetTraceSink
// swaps — the documented atomicity contract, exercised under -race.
func TestTraceSinkSwapRace(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	swapTelemetry(t, c, obs.TelemetryConfig{SlowThreshold: time.Nanosecond})
	defer c.SetTraceSink(nil)

	var wg sync.WaitGroup
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				if (g+i)%2 == 0 {
					c.Query("delicious food in Montreal")
				} else {
					c.ExtractTags("the staff is friendly")
				}
			}
		}(g)
	}
	go func() { wg.Wait(); close(done) }()
	rings := []*obs.Ring[obs.SpanRecord]{obs.NewRing[obs.SpanRecord](64), obs.NewRing[obs.SpanRecord](64)}
	for i := 0; ; i++ {
		select {
		case <-done:
		default:
			c.SetTraceSink(rings[i%2])
			c.SetTraceSink(nil)
			continue
		}
		break
	}
	if len(c.Observer().Telemetry().Events()) == 0 {
		t.Fatal("no wide events recorded during the sink-swap race")
	}
}

// TestConcurrentRequestsDeliverWholeTrees runs QueryCtx from several
// goroutines with a RingSink attached. Each request hands its spans to the
// sink as they end, so the spans of concurrent requests interleave there;
// every request's root must still head a complete subtree — one span name
// per stage its wide event timed, and no span of its trace outside the
// subtree — and every span in it must carry that request's trace ID.
func TestConcurrentRequestsDeliverWholeTrees(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	ring := NewRingSink(4096)
	c.SetTraceSink(ring)
	defer c.SetTraceSink(nil)
	tel := swapTelemetry(t, c, obs.TelemetryConfig{})
	utterances := []string{
		"an Italian restaurant in Montreal with delicious food",
		"a place with friendly staff and a splendiferous vibe",
		"delicious food in Montreal",
		"somewhere romantic with helpful waiters",
	}
	const workers, per = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*per)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.QueryCtx(context.Background(), utterances[(g+i)%len(utterances)]); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	spans := ring.All()
	perTrace := map[obs.TraceID]int{}
	for _, s := range spans {
		perTrace[s.Trace]++
	}
	evs := tel.Events()
	if len(evs) != workers*per {
		t.Fatalf("%d wide events for %d queries", len(evs), workers*per)
	}
	for i, ev := range evs {
		sub := obs.Subtree(spans, uint64(ev.Root))
		if len(sub) == 0 || sub[0].Name != "query" || sub[0].Parent != 0 {
			t.Fatalf("request %d: no root span %s in the sink", i, ev.Root)
		}
		stages := map[string]bool{}
		for _, s := range sub {
			if s.Trace != ev.Trace {
				t.Fatalf("request %d: span %s carries trace %s, want %s", i, s.Name, s.Trace, ev.Trace)
			}
			if s.Parent != 0 {
				stages[s.Name] = true
			}
		}
		if len(stages) != len(ev.Stage) {
			t.Fatalf("request %d: span names %v, wide-event stages %v", i, stages, ev.Stage)
		}
		for name := range ev.Stage {
			if !stages[name] {
				t.Fatalf("request %d: stage %s has no span in the subtree", i, name)
			}
		}
		if n := perTrace[ev.Trace]; n != len(sub) {
			t.Fatalf("request %d: %d spans carry its trace, %d are in its subtree", i, n, len(sub))
		}
	}
}

// TestObsLint is the telemetry schema gate run by `make ci` (obs-lint): every
// child stage span the pipeline emits must be declared in obs.StageNames,
// must have a registered latency histogram, and must surface in the wide
// event's stage map — so a renamed or new stage cannot silently fall out of
// /metrics or the wide events.
func TestObsLint(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing[obs.SpanRecord](2048)
	c.SetTraceSink(ring)
	defer c.SetTraceSink(nil)
	tel := swapTelemetry(t, c, obs.TelemetryConfig{})

	// Cover every request kind: query (with an unknown tag so history.drain
	// has work), extract, and reindex.
	c.Query("an Italian restaurant in Montreal with delicious food and a splendiferous vibe")
	c.ExtractTags("the staff is friendly and the food is delicious")
	c.Reindex()

	schema := map[string]bool{}
	for _, name := range obs.StageNames {
		schema[name] = true
	}
	snap := c.Stats()
	eventStages := map[string]bool{}
	for _, ev := range tel.Events() {
		for name := range ev.Stage {
			eventStages[name] = true
		}
	}
	seen := map[string]bool{}
	for _, s := range ring.All() {
		if s.Parent == 0 || seen[s.Name] {
			continue
		}
		seen[s.Name] = true
		if !schema[s.Name] {
			t.Errorf("span %q is not declared in obs.StageNames — wide events would drop it from the schema", s.Name)
		}
		// Every stage span must feed a registered latency histogram: BeginStage
		// stages under "stage.<name>", the index instruments under their own name.
		if snap.Histograms["stage."+s.Name].Count == 0 && snap.Histograms[s.Name].Count == 0 {
			t.Errorf("span %q has no registered latency histogram (stage.%s or %s)", s.Name, s.Name, s.Name)
		}
		if !eventStages[s.Name] {
			t.Errorf("span %q never surfaced in a wide event's stage map", s.Name)
		}
	}
	if len(seen) < 5 {
		t.Fatalf("obs-lint saw only %d distinct stage spans: %v", len(seen), seen)
	}
}
