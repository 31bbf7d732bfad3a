package saccs

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"reflect"
	"sync"
	"testing"
)

// countdownCtx reports no error for the first `after` Err() polls, then the
// configured error forever. The whole context-aware pipeline cancels by
// cooperative Err() polling, so the countdown deterministically places an
// expiry at the Nth poll point — no real clocks, no flaky sleeps.
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

// TestQueryCtxCancelledTypedError: a pre-cancelled context makes every
// context-aware entry point fail with a *StageError that unwraps to
// context.Canceled — and never with partial results or partial state.
func TestQueryCtxCancelledTypedError(t *testing.T) {
	c := goldenIndexedClient(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	resp, err := c.QueryCtx(ctx, "a place with delicious food")
	var se *StageError
	if !errors.As(err, &se) || !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryCtx error: %v", err)
	}
	if se.Stage != "parse" {
		t.Fatalf("pre-cancelled query failed at stage %q, want parse", se.Stage)
	}
	if !reflect.DeepEqual(resp, Response{}) {
		t.Fatalf("partial response on cancellation: %+v", resp)
	}

	results, err := c.QueryTagsCtx(ctx, []string{"delicious food"})
	if !errors.As(err, &se) || !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryTagsCtx error: %v", err)
	}
	if results != nil {
		t.Fatalf("partial results on cancellation: %v", results)
	}

	tagsBefore := len(c.IndexedTags())
	if err := c.IndexEntitiesCtx(ctx, demoEntities(), c.CanonicalTags()); !errors.As(err, &se) || !errors.Is(err, context.Canceled) {
		t.Fatalf("IndexEntitiesCtx error: %v", err)
	}
	if got := len(c.IndexedTags()); got != tagsBefore {
		t.Fatalf("cancelled IndexEntitiesCtx changed the index: %d -> %d tags", tagsBefore, got)
	}

	added, err := c.ReindexCtx(ctx)
	if !errors.As(err, &se) || !errors.Is(err, context.Canceled) {
		t.Fatalf("ReindexCtx error: %v", err)
	}
	if se.Stage != "reindex" || added != nil {
		t.Fatalf("cancelled ReindexCtx: stage %q, added %v", se.Stage, added)
	}
}

// TestQueryCtxDeadlineSweep slides an expiry across every poll point of a
// full query (n = 0, 1, 2, …). Every failing position must produce a
// *StageError unwrapping to context.DeadlineExceeded and a zero Response;
// among the observed failure stages must be "rank" (the deadline is caught
// mid-rank, not only at stage boundaries); and the first fully successful
// run must equal the uncancelled baseline exactly.
func TestQueryCtxDeadlineSweep(t *testing.T) {
	c := goldenIndexedClient(t)
	const utterance = "fair prices, fresh ingredients and generous portions"
	want := c.Query(utterance)
	if len(want.Tags) < 2 {
		t.Skipf("tagger extracted too few tags for a multi-stage sweep: %v", want.Tags)
	}

	const maxPolls = 2000
	stages := map[string]bool{}
	completed := false
	for n := 0; n < maxPolls; n++ {
		ctx := &countdownCtx{Context: context.Background(), after: n, err: context.DeadlineExceeded}
		resp, err := c.QueryCtx(ctx, utterance)
		if err == nil {
			if !reflect.DeepEqual(resp, want) {
				t.Fatalf("n=%d: response diverged from baseline:\ngot:  %+v\nwant: %+v", n, resp, want)
			}
			completed = true
			break
		}
		var se *StageError
		if !errors.As(err, &se) {
			t.Fatalf("n=%d: not a *StageError: %v", n, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("n=%d: does not unwrap to DeadlineExceeded: %v", n, err)
		}
		if !reflect.DeepEqual(resp, Response{}) {
			t.Fatalf("n=%d: partial response alongside error: %+v", n, resp)
		}
		stages[se.Stage] = true
	}
	if !completed {
		t.Fatalf("query still interrupted after %d polls", maxPolls)
	}
	if !stages["rank"] {
		t.Fatalf("deadline never observed mid-rank; stages hit: %v", stages)
	}
	if !stages["parse"] {
		t.Fatalf("deadline never observed up front; stages hit: %v", stages)
	}
}

// TestGoldenQueriesViaCtx pins the wrapper contract: QueryCtx with a
// background context must reproduce the same golden snapshots as Query, for
// all five canonical utterances.
func TestGoldenQueriesViaCtx(t *testing.T) {
	c := goldenIndexedClient(t)
	for _, tc := range goldenUtterances {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := c.QueryCtx(context.Background(), tc.utterance)
			if err != nil {
				t.Fatal(err)
			}
			want := readGolden(t, goldenPath(tc.name))
			compareGolden(t, want, snapshotResponse(tc.utterance, resp))
		})
	}
}

// TestQueryOptionsOverrides: per-request options override TopK and
// ThetaFilter without touching the shared Config.
func TestQueryOptionsOverrides(t *testing.T) {
	c := goldenIndexedClient(t)
	const utterance = "a place that serves tasty meals"
	base, err := c.QueryCtx(context.Background(), utterance)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Results) <= 3 {
		t.Fatalf("baseline too small to truncate: %d results", len(base.Results))
	}

	got, err := c.QueryCtx(context.Background(), utterance, QueryOptions{TopK: Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 3 {
		t.Fatalf("TopK override ignored: %d results", len(got.Results))
	}
	if !reflect.DeepEqual(got.Results, base.Results[:3]) {
		t.Fatalf("TopK override changed the ranking: %v vs %v", got.Results, base.Results[:3])
	}
	// TopK 0 lifts the truncation entirely.
	all, err := c.QueryCtx(context.Background(), utterance, QueryOptions{TopK: Int(0)})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Results) < len(base.Results) {
		t.Fatalf("TopK 0 returned fewer results than the default: %d < %d", len(all.Results), len(base.Results))
	}

	// An explicit ThetaFilter equal to the config must be a no-op, and the
	// shared Config must never be mutated by per-request options.
	baseTags := c.QueryTags([]string{"tasty meals"})
	theta := c.cfg.ThetaFilter
	same, err := c.QueryTagsCtx(context.Background(), []string{"tasty meals"},
		QueryOptions{ThetaFilter: &theta})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(same, baseTags) {
		t.Fatalf("explicit default ThetaFilter changed the answer: %v vs %v", same, baseTags)
	}
	if c.cfg.TopK != DefaultConfig().TopK || c.cfg.ThetaFilter != DefaultConfig().ThetaFilter {
		t.Fatalf("per-request options mutated the shared Config: %+v", c.cfg)
	}
}

func readGolden(t *testing.T, path string) goldenResponse {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden snapshot (run TestGoldenQueries with -update first): %v", err)
	}
	var want goldenResponse
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden snapshot %s: %v", path, err)
	}
	return want
}

// TestServeMetricsLifecycle pins the documented server lifecycle: serve,
// scrape, reject a second bind on the same port, shut down, rebind the same
// address, and reject a malformed address.
func TestServeMetricsLifecycle(t *testing.T) {
	c := newClient(t)
	srv, err := c.ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	scrape := func() string {
		resp, err := http.Get("http://" + srv.Addr + "/metrics")
		if err != nil {
			t.Fatalf("scrape: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape status: %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := scrape(); body == "" {
		t.Fatal("empty metrics payload")
	}

	// The port is held: a second server on the same address must fail
	// immediately instead of leaking a half-started server.
	if _, err := c.ServeMetrics(srv.Addr); err == nil {
		t.Fatal("double serve on a held port must error")
	}

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// After shutdown the address is free again; a fresh server on the same
	// port serves the same live registry.
	srv2, err := c.ServeMetrics(srv.Addr)
	if err != nil {
		t.Fatalf("re-serve after shutdown: %v", err)
	}
	defer srv2.Close()
	resp, err := http.Get("http://" + srv2.Addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape after re-serve: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape after re-serve status: %d", resp.StatusCode)
	}

	if _, err := c.ServeMetrics("this is not an address"); err == nil {
		t.Fatal("malformed address must error")
	}
}
