package saccs

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"saccs/internal/yelp"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden snapshots")

// goldenResult pins one ranked answer. Score is serialized as a %.9f string
// so the files are diff-stable and the comparison tolerance (1e-9) is visible
// in the snapshot itself.
type goldenResult struct {
	ID    string `json:"id"`
	Score string `json:"score"`
}

type goldenResponse struct {
	Utterance   string            `json:"utterance"`
	Intent      string            `json:"intent"`
	Slots       map[string]string `json:"slots,omitempty"`
	Tags        []string          `json:"tags"`
	UnknownTags []string          `json:"unknown_tags,omitempty"`
	Results     []goldenResult    `json:"results"`
}

// goldenWorld converts the seeded CI-scale Yelp world (36 Italian restaurants
// in Montreal, the same world cmd/saccs-chat and the §6 experiments demo on)
// into facade entities. Generation, training, extraction and ranking are all
// deterministic, so the end-to-end answers are pinnable byte for byte.
func goldenWorld() []Entity {
	w := yelp.Generate(yelp.FastConfig())
	out := make([]Entity, len(w.Entities))
	for i, e := range w.Entities {
		reviews := make([]string, len(e.Reviews))
		for j, r := range e.Reviews {
			reviews[j] = r.Text
		}
		out[i] = Entity{ID: e.ID, Name: e.Name, City: e.City, Cuisine: e.Cuisine, Reviews: reviews}
	}
	return out
}

var (
	goldenOnce   sync.Once
	goldenClient *Client
	goldenErr    error
)

// goldenIndexedClient indexes the golden world once. It reuses the shared
// trained client; the index swap is what the snapshots depend on, so every
// golden test goes through this helper instead of newClient directly.
func goldenIndexedClient(t *testing.T) *Client {
	t.Helper()
	goldenOnce.Do(func() {
		c := newClient(t)
		goldenErr = c.IndexEntities(goldenWorld(), c.CanonicalTags())
		goldenClient = c
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenClient
}

// The five canonical utterances cover the snapshot-worthy paths: plain
// subjective tags, tag + objective slots, multi-tag aggregation, and an
// off-lexicon phrasing that exercises the similar-tag union.
var goldenUtterances = []struct{ name, utterance string }{
	{"delicious-italian-montreal", "I want an Italian restaurant in Montreal with delicious food"},
	{"friendly-romantic", "somewhere with nice staff and a romantic ambiance"},
	{"quiet-quick", "a quiet atmosphere and quick service please"},
	{"prices-ingredients", "fair prices, fresh ingredients and generous portions"},
	{"tasty-meals", "a place that serves tasty meals"},
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

func snapshotResponse(utterance string, resp Response) goldenResponse {
	g := goldenResponse{
		Utterance:   utterance,
		Intent:      resp.Intent,
		Slots:       resp.Slots,
		Tags:        resp.Tags,
		UnknownTags: resp.UnknownTags,
	}
	n := len(resp.Results)
	if n > 10 {
		n = 10
	}
	for _, r := range resp.Results[:n] {
		g.Results = append(g.Results, goldenResult{ID: r.ID, Score: fmt.Sprintf("%.9f", r.Score)})
	}
	return g
}

// TestGoldenQueries pins the full end-to-end answer (intent, slots, extracted
// tags, unknown tags, and the top-10 ranked IDs with scores to 1e-9) for the
// canonical utterances against the seeded demo world. Regenerate after an
// intentional behavior change with:
//
//	go test . -run TestGoldenQueries -update
func TestGoldenQueries(t *testing.T) {
	c := goldenIndexedClient(t)
	for _, tc := range goldenUtterances {
		t.Run(tc.name, func(t *testing.T) {
			got := snapshotResponse(tc.utterance, c.Query(tc.utterance))
			path := goldenPath(tc.name)
			if *updateGolden {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden snapshot (run with -update to create): %v", err)
			}
			var want goldenResponse
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("corrupt golden snapshot %s: %v", path, err)
			}
			compareGolden(t, want, got)
		})
	}
}

func compareGolden(t *testing.T, want, got goldenResponse) {
	t.Helper()
	if got.Intent != want.Intent {
		t.Errorf("intent: got %q, want %q", got.Intent, want.Intent)
	}
	if len(got.Slots) != len(want.Slots) {
		t.Errorf("slots: got %v, want %v", got.Slots, want.Slots)
	} else {
		for k, v := range want.Slots {
			if got.Slots[k] != v {
				t.Errorf("slot %q: got %q, want %q", k, got.Slots[k], v)
			}
		}
	}
	if !equalStrings(got.Tags, want.Tags) {
		t.Errorf("tags: got %v, want %v", got.Tags, want.Tags)
	}
	if !equalStrings(got.UnknownTags, want.UnknownTags) {
		t.Errorf("unknown tags: got %v, want %v", got.UnknownTags, want.UnknownTags)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("results: got %d, want %d\ngot:  %v\nwant: %v", len(got.Results), len(want.Results), got.Results, want.Results)
	}
	for i := range want.Results {
		if got.Results[i].ID != want.Results[i].ID {
			t.Errorf("rank %d: got %s, want %s", i, got.Results[i].ID, want.Results[i].ID)
			continue
		}
		ws, err1 := strconv.ParseFloat(want.Results[i].Score, 64)
		gs, err2 := strconv.ParseFloat(got.Results[i].Score, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("rank %d: unparseable scores %q / %q", i, want.Results[i].Score, got.Results[i].Score)
		}
		if math.Abs(ws-gs) > 1e-9 {
			t.Errorf("rank %d (%s): score drifted beyond 1e-9: got %s, want %s", i, got.Results[i].ID, got.Results[i].Score, want.Results[i].Score)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestGoldenWorldStable guards the snapshot's foundation: the seeded world
// itself must not drift (entity count, first/last IDs, total review count).
// If this fails, regenerating the golden files is expected — the queries
// changed because the corpus did, not because the pipeline did.
func TestGoldenWorldStable(t *testing.T) {
	w := goldenWorld()
	if len(w) != 36 {
		t.Fatalf("golden world size changed: %d entities", len(w))
	}
	if w[0].ID != "e000" || w[len(w)-1].ID != "e035" {
		t.Fatalf("golden world IDs changed: %s..%s", w[0].ID, w[len(w)-1].ID)
	}
	total := 0
	for _, e := range w {
		total += len(e.Reviews)
	}
	if total == 0 {
		t.Fatal("golden world has no reviews")
	}
}
