package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"saccs"
	"saccs/internal/yelp"
)

// The trained pipeline is expensive (seconds) and immutable once built:
// every test shares one client over the seeded demo world. The drain
// test shuts it down for good, so it must run last (it does — tests run in
// source order within this file).
var (
	sharedOnce   sync.Once
	sharedClient *saccs.Client
	sharedErr    error
)

func demoEntities() []saccs.Entity {
	w := yelp.Generate(yelp.FastConfig())
	out := make([]saccs.Entity, len(w.Entities))
	for i, e := range w.Entities {
		reviews := make([]string, len(e.Reviews))
		for j, r := range e.Reviews {
			reviews[j] = r.Text
		}
		out[i] = saccs.Entity{ID: e.ID, Name: e.Name, City: e.City, Cuisine: e.Cuisine, Reviews: reviews}
	}
	return out
}

func testClient(t *testing.T) *saccs.Client {
	t.Helper()
	sharedOnce.Do(func() {
		c, err := saccs.New(saccs.DefaultConfig())
		if err != nil {
			sharedErr = err
			return
		}
		sharedErr = c.IndexEntities(demoEntities(), c.CanonicalTags())
		sharedClient = c
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedClient
}

func testServer(t *testing.T) *Server {
	return New(testClient(t), Config{MaxBodyBytes: 4096})
}

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestHandlerTable drives every transport-error path through the mux: method
// checks, malformed and unknown-field JSON, oversized bodies, and missing
// required fields.
func TestHandlerTable(t *testing.T) {
	s := testServer(t)
	cases := []struct {
		name, method, path, body string
		wantCode                 int
	}{
		// The reindex case runs before any query case: with an empty tag
		// history it is a no-op, while after a query it could drain unknown
		// tags into the shared index and perturb the golden replay below.
		{"reindex-empty-body", http.MethodPost, "/v1/reindex", "", http.StatusOK},
		{"query-get", http.MethodGet, "/v1/query", "", http.StatusMethodNotAllowed},
		{"query-bad-json", http.MethodPost, "/v1/query", "{not json", http.StatusBadRequest},
		{"query-unknown-field", http.MethodPost, "/v1/query", `{"utteranc":"typo"}`, http.StatusBadRequest},
		{"query-missing-utterance", http.MethodPost, "/v1/query", `{}`, http.StatusBadRequest},
		{"query-oversized", http.MethodPost, "/v1/query", `{"utterance":"` + strings.Repeat("x", 8192) + `"}`, http.StatusRequestEntityTooLarge},
		{"query-ok", http.MethodPost, "/v1/query", `{"utterance":"a place with delicious food"}`, http.StatusOK},
		{"query-trailing-value", http.MethodPost, "/v1/query", `{"utterance":"delicious food"}{"utterance":"nice staff"}`, http.StatusBadRequest},
		{"query-trailing-garbage", http.MethodPost, "/v1/query", `{"utterance":"delicious food"} junk`, http.StatusBadRequest},
		{"query-trailing-oversized", http.MethodPost, "/v1/query", `{"utterance":"delicious food"}` + strings.Repeat(" ", 8192), http.StatusRequestEntityTooLarge},
		{"query-trailing-newline", http.MethodPost, "/v1/query", "{\"utterance\":\"a place with delicious food\"}\n", http.StatusOK},
		{"extract-missing-text", http.MethodPost, "/v1/extract", `{}`, http.StatusBadRequest},
		{"extract-ok", http.MethodPost, "/v1/extract", `{"text":"the pasta was delicious"}`, http.StatusOK},
		{"append-missing-review", http.MethodPost, "/v1/append", `{"entity_id":"e900"}`, http.StatusBadRequest},
		{"append-delete", http.MethodDelete, "/v1/append", "", http.StatusMethodNotAllowed},
		{"register-missing-id", http.MethodPost, "/v1/register", `{"name":"No ID"}`, http.StatusBadRequest},
		{"healthz", http.MethodGet, "/healthz", "", http.StatusOK},
		{"readyz", http.MethodGet, "/readyz", "", http.StatusOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			w := httptest.NewRecorder()
			s.Handler().ServeHTTP(w, req)
			if w.Code != tc.wantCode {
				t.Fatalf("%s %s: got %d, want %d; body: %s", tc.method, tc.path, w.Code, tc.wantCode, w.Body.String())
			}
		})
	}
}

// TestQueryAnswers checks the happy path end to end through the mux: a
// subjective utterance comes back with tags and ranked results, and a
// per-request top_k override truncates.
func TestQueryAnswers(t *testing.T) {
	s := testServer(t)
	w := postJSON(t, s.Handler(), "/v1/query", `{"utterance":"an italian place with delicious food","top_k":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d: %s", w.Code, w.Body.String())
	}
	var resp saccs.Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Tags) == 0 {
		t.Fatalf("no tags extracted: %+v", resp)
	}
	if len(resp.Results) == 0 || len(resp.Results) > 3 {
		t.Fatalf("top_k=3 returned %d results", len(resp.Results))
	}
}

// TestCancelledRequest maps a caller that has already hung up to 503, not a
// hung handler or a 500.
func TestCancelledRequest(t *testing.T) {
	s := testServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"utterance":"delicious food"}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("cancelled query: got %d, want 503; body: %s", w.Code, w.Body.String())
	}
}

// TestTraceparentRoundTrip propagates a W3C traceparent through the HTTP
// layer: the response echoes it and the facade's wide event joins the trace.
func TestTraceparentRoundTrip(t *testing.T) {
	s := testServer(t)
	const trace = "4bf92f3577b34da6a3ce929d0e0e4736"
	tp := "00-" + trace + "-00f067aa0ba902b7-01"
	req := httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(`{"utterance":"nice staff"}`))
	req.Header.Set("traceparent", tp)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d: %s", w.Code, w.Body.String())
	}
	if got := w.Header().Get("traceparent"); got != tp {
		t.Fatalf("response traceparent = %q, want %q", got, tp)
	}
	events := testClient(t).Events()
	if len(events) == 0 {
		t.Fatal("no wide events recorded")
	}
	last := events[len(events)-1]
	if last.Trace.String() != trace {
		t.Fatalf("wide event trace = %s, want %s (request did not join the caller's trace)", last.Trace, trace)
	}
	if got := w.Header().Get("traceparent"); !strings.Contains(got, trace) {
		t.Fatalf("echoed traceparent lost the trace ID: %q", got)
	}
}

// goldenFile mirrors the snapshot schema of the root package's golden tests.
type goldenFile struct {
	Utterance   string            `json:"utterance"`
	Intent      string            `json:"intent"`
	Slots       map[string]string `json:"slots"`
	Tags        []string          `json:"tags"`
	UnknownTags []string          `json:"unknown_tags"`
	Results     []struct {
		ID    string `json:"id"`
		Score string `json:"score"`
	} `json:"results"`
}

// TestGoldenReplayOverLoopback replays every golden utterance through the
// real server — TCP listener, HTTP client, JSON round trip — against the
// demo world and requires the answers to match the same snapshots the
// in-process client pins: the serving tier must add framing, not semantics.
func TestGoldenReplayOverLoopback(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden snapshots found: %v", err)
	}
	s := New(testClient(t), Config{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var want goldenFile
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		t.Run(filepath.Base(f), func(t *testing.T) {
			body, _ := json.Marshal(map[string]string{"utterance": want.Utterance})
			resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query over loopback: %d", resp.StatusCode)
			}
			var got saccs.Response
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			if got.Intent != want.Intent {
				t.Errorf("intent: got %q, want %q", got.Intent, want.Intent)
			}
			if fmt.Sprint(got.Tags) != fmt.Sprint(want.Tags) {
				t.Errorf("tags: got %v, want %v", got.Tags, want.Tags)
			}
			n := len(got.Results)
			if n > 10 {
				n = 10
			}
			if n != len(want.Results) {
				t.Fatalf("results: got %d, want %d", n, len(want.Results))
			}
			for i, wr := range want.Results {
				if got.Results[i].ID != wr.ID {
					t.Errorf("rank %d: got %s, want %s", i, got.Results[i].ID, wr.ID)
					continue
				}
				ws, err := strconv.ParseFloat(wr.Score, 64)
				if err != nil {
					t.Fatalf("rank %d: unparseable golden score %q", i, wr.Score)
				}
				if math.Abs(ws-got.Results[i].Score) > 1e-9 {
					t.Errorf("rank %d (%s): score drifted: got %.9f, want %s", i, wr.ID, got.Results[i].Score, wr.Score)
				}
			}
		})
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// Drain contract: readiness is now permanently 503, liveness still 200.
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz after drain: got %d, want 503", w.Code)
	}
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/healthz after drain: got %d, want 200", w.Code)
	}
}

// TestAppendWithMetadata streams a review with entity metadata through the
// API and checks both land: the entity is registered with its identity and
// the review is acknowledged. It runs after the golden replay because the
// streamed review eventually publishes into the shared index (the replay's
// drain left the shared client open: a server does not shut its client).
func TestAppendWithMetadata(t *testing.T) {
	s := testServer(t)
	body := `{"entity_id":"e900","review":"wonderful fresh pasta and a lovely view","name":"Trattoria 900","city":"montreal","cuisine":"italian"}`
	if w := postJSON(t, s.Handler(), "/v1/append", body); w.Code != http.StatusOK {
		t.Fatalf("append: %d: %s", w.Code, w.Body.String())
	}
	e, ok := testClient(t).Entity("e900")
	if !ok {
		t.Fatal("appended entity not registered")
	}
	if e.Name != "Trattoria 900" || e.City != "montreal" || e.Cuisine != "italian" {
		t.Fatalf("metadata lost: %+v", e)
	}
}

// TestShutdownDrainsAndSealsWrites is the write side of the drain contract,
// and it runs last because it seals the shared client. After Server.Shutdown
// the server still answers queries and refuses every write with 503, while
// the client it was handed stays open. After Client.Shutdown, a fresh server
// over that client refuses every write with 503 naming ErrShutdown.
func TestShutdownDrainsAndSealsWrites(t *testing.T) {
	c := testClient(t)
	writes := map[string]string{
		"/v1/append":   `{"entity_id":"e901","review":"delicious food"}`,
		"/v1/register": `{"entity_id":"e901","name":"Sealed"}`,
		"/v1/reindex":  ``,
	}
	refused := func(s *Server, why string) {
		t.Helper()
		if w := postJSON(t, s.Handler(), "/v1/query", `{"utterance":"a place with delicious food"}`); w.Code != http.StatusOK {
			t.Fatalf("query: %d: %s", w.Code, w.Body.String())
		}
		for path, body := range writes {
			w := postJSON(t, s.Handler(), path, body)
			if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), why) {
				t.Fatalf("%s: %d %s, want 503 naming %q", path, w.Code, w.Body.String(), why)
			}
		}
		if _, ok := c.Entity("e901"); ok {
			t.Fatal("a refused write registered an entity")
		}
	}

	s := New(c, Config{Addr: "127.0.0.1:0"})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	refused(s, "server is shut down")
	if err := c.AppendReview("e902", "fresh pasta"); err != nil {
		t.Fatalf("Server.Shutdown sealed the client it was handed: %v", err)
	}

	c.Shutdown()
	refused(New(c, Config{}), saccs.ErrShutdown.Error())
}
