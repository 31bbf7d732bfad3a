package saccs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
)

var (
	sharedClient *Client
	sharedErr    error
	clientOnce   sync.Once
)

// newClient trains one shared fast client for the facade tests. Tests that
// index entities re-index, which resets the client's corpus state anyway.
func newClient(t testing.TB) *Client {
	t.Helper()
	clientOnce.Do(func() {
		sharedClient, sharedErr = New(DefaultConfig())
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedClient
}

func demoEntities() []Entity {
	return []Entity{
		{
			ID: "vue", Name: "Vue du Monde", City: "Montreal", Cuisine: "Italian",
			Reviews: []string{
				"The food is delicious and the staff is friendly.",
				"Really good food. The waiters were very attentive.",
				"Amazing pizza and a quiet atmosphere.",
			},
		},
		{
			ID: "hut", Name: "Pizza Hut", City: "Montreal", Cuisine: "Italian",
			Reviews: []string{
				"The food was bland and the staff was rude.",
				"Fast delivery but the plates were dirty.",
			},
		},
		{
			ID: "anchovy", Name: "Anchovy", City: "Melbourne", Cuisine: "Italian",
			Reviews: []string{
				"Creative cooking and fresh ingredients.",
				"The menu is varied and the cooking is inventive.",
			},
		},
	}
}

func TestClientEndToEnd(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	if len(c.IndexedTags()) != 18 {
		t.Fatalf("indexed tags: %d", len(c.IndexedTags()))
	}
	resp := c.Query("I want an Italian restaurant in Montreal with delicious food")
	if resp.Intent != "searchRestaurant" {
		t.Fatalf("intent: %s", resp.Intent)
	}
	if resp.Slots["cuisine"] != "italian" || resp.Slots["location"] != "montreal" {
		t.Fatalf("slots: %v", resp.Slots)
	}
	// Melbourne entity must be filtered out by the objective slots.
	for _, r := range resp.Results {
		if r.ID == "anchovy" {
			t.Fatal("objective filter leaked a Melbourne entity")
		}
	}
	if len(resp.Results) == 0 {
		t.Fatal("no results")
	}
	// The positively reviewed restaurant should outrank the bad one.
	if resp.Results[0].ID != "vue" {
		t.Fatalf("expected vue first, got %v", resp.Results)
	}
}

func TestClientExtractTags(t *testing.T) {
	c := newClient(t)
	tags := c.ExtractTags("The food is delicious and the staff is friendly.")
	if len(tags) == 0 {
		t.Fatal("no tags extracted")
	}
	joined := strings.Join(tags, "|")
	if !strings.Contains(joined, "food") {
		t.Fatalf("expected a food tag, got %v", tags)
	}
}

func TestClientUnknownTagAndReindex(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), []string{"delicious food"}); err != nil {
		t.Fatal(err)
	}
	resp := c.Query("a place with a quiet atmosphere")
	if len(resp.Tags) == 0 {
		t.Skip("tagger missed the tag at fast scale")
	}
	if len(resp.UnknownTags) == 0 {
		t.Fatalf("tag should be unknown to a 1-tag index: %v", resp.Tags)
	}
	added := c.Reindex()
	if len(added) == 0 {
		t.Fatal("Reindex added nothing")
	}
	for _, tag := range added {
		if !c.w.Load().ix.Current().Has(tag) {
			t.Fatalf("tag %q not indexed after Reindex", tag)
		}
	}
}

func TestClientQueryTags(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	got := c.QueryTags([]string{"creative cooking"})
	if len(got) == 0 {
		t.Fatal("no results")
	}
	if got[0].ID != "anchovy" {
		t.Fatalf("anchovy should win creative cooking: %v", got)
	}
}

func TestClientValidation(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities([]Entity{{ID: ""}}, nil); err == nil {
		t.Fatal("empty ID must error")
	}
	if err := c.IndexEntities([]Entity{{ID: "a"}, {ID: "a"}}, nil); err == nil {
		t.Fatal("duplicate ID must error")
	}
	if _, err := New(Config{Domain: "aviation"}); err == nil {
		t.Fatal("unknown domain must error")
	}
	if _, err := New(Config{Precision: "int8"}); err == nil || !strings.Contains(err.Error(), "float64 or mixed") {
		t.Fatalf("retired precision must be rejected naming the accepted values, got %v", err)
	}
	_ = c
}

// TestConfigZeroValuesHonored pins the explicit-zero contract: New takes
// numeric fields literally instead of silently replacing zeros with the
// DefaultConfig values.
func TestConfigZeroValuesHonored(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ThetaIndex = 0
	cfg.ThetaFilter = 0
	cfg.Epsilon = 0
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.cfg.ThetaIndex != 0 || c.cfg.ThetaFilter != 0 || c.cfg.Epsilon != 0 {
		t.Fatalf("explicit zeros were defaulted: %+v", c.cfg)
	}
	// Behavioral check: θ_index = 0 admits every review tag with any
	// positive similarity, so the zero-threshold posting list can only be a
	// superset of the default-threshold one.
	if err := c.IndexEntities(demoEntities(), []string{"delicious food"}); err != nil {
		t.Fatal(err)
	}
	zero := c.w.Load().ix.Lookup("delicious food")
	def := newClient(t)
	if err := def.IndexEntities(demoEntities(), []string{"delicious food"}); err != nil {
		t.Fatal(err)
	}
	if len(zero) < len(def.w.Load().ix.Lookup("delicious food")) {
		t.Fatalf("theta_index 0 produced fewer postings (%d) than 0.55", len(zero))
	}
}

// TestConcurrentQueryReindex hammers Query from 8 goroutines while Reindex
// runs the adaptive loop of Fig. 1 concurrently — the snapshot-publication
// contract (reentrant extraction + pinned immutable index generations).
// Run with -race.
func TestConcurrentQueryReindex(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), []string{"delicious food"}); err != nil {
		t.Fatal(err)
	}
	utterances := []string{
		"a place with a quiet atmosphere",
		"I want an Italian restaurant in Montreal with delicious food",
		"somewhere with friendly staff and creative cooking",
		"good food and attentive waiters please",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp := c.Query(utterances[(g+i)%len(utterances)])
				if resp.Intent != "searchRestaurant" {
					t.Errorf("intent: %s", resp.Intent)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			c.Reindex()
		}
	}()
	wg.Wait()
	// Every unknown tag either drained into the index by a Reindex round or
	// is still pending; a final round must leave nothing behind.
	c.Reindex()
	for _, tag := range c.w.Load().history.Pending() {
		t.Errorf("tag %q still pending after final Reindex", tag)
	}
}

func TestClientTagLabels(t *testing.T) {
	c := newClient(t)
	tokens, labels := c.TagLabels("the food is delicious")
	if len(tokens) != len(labels) || len(tokens) != 4 {
		t.Fatalf("TagLabels shape: %v %v", tokens, labels)
	}
	for _, l := range labels {
		switch l {
		case "O", "B-AS", "I-AS", "B-OP", "I-OP":
		default:
			t.Fatalf("invalid label %q", l)
		}
	}
}

func TestEntityLookup(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), nil); err != nil {
		t.Fatal(err)
	}
	e, ok := c.Entity("vue")
	if !ok || e.Name != "Vue du Monde" {
		t.Fatalf("Entity lookup: %v %v", e, ok)
	}
	if _, ok := c.Entity("nope"); ok {
		t.Fatal("unknown entity reported present")
	}
}

func TestClientSaveLoadIndex(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	before := c.QueryTags([]string{"creative cooking"})
	if err := c.LoadIndex(&buf); err != nil {
		t.Fatal(err)
	}
	after := c.QueryTags([]string{"creative cooking"})
	if len(before) != len(after) {
		t.Fatalf("round trip changed results: %v vs %v", before, after)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("result %d changed: %v vs %v", i, before[i], after[i])
		}
	}
}

// TestLoadIndexThenRegisterEntityKeepsPostings pins LoadIndex's documented
// restart recipe: a fresh client loads a saved index and re-registers the
// entities with RegisterEntity (metadata only, no reviews). The loaded
// postings must survive the registration, and a slot-filtered Query must
// see the entities and rank them as the client that saved the index did.
func TestLoadIndexThenRegisterEntityKeepsPostings(t *testing.T) {
	src := newClient(t)
	if err := src.IndexEntities(demoEntities(), src.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	const utterance = "I want an Italian restaurant in Montreal with delicious food"
	wantTags := src.IndexedTags()
	wantScores := src.QueryTags([]string{"creative cooking"})
	want := src.Query(utterance)

	// A clone is a restart's shape — a fresh world, index and ingester over
	// the same trained weights — without retraining.
	c := cloneForTest(t, src, DefaultConfig())
	defer c.Shutdown()
	if err := c.LoadIndex(&buf); err != nil {
		t.Fatal(err)
	}
	for _, e := range demoEntities() {
		if err := c.RegisterEntity(Entity{ID: e.ID, Name: e.Name, City: e.City, Cuisine: e.Cuisine}); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.IndexedTags(); !reflect.DeepEqual(got, wantTags) {
		t.Fatalf("indexed tags after RegisterEntity: %d %v, want %d %v", len(got), got, len(wantTags), wantTags)
	}
	if got := c.QueryTags([]string{"creative cooking"}); len(got) == 0 || !reflect.DeepEqual(got, wantScores) {
		t.Fatalf("creative cooking after RegisterEntity: %v, want %v", got, wantScores)
	}
	got := c.Query(utterance)
	if len(got.Results) == 0 || !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("slot-filtered query after RegisterEntity: %v, want %v", got.Results, want.Results)
	}
	for _, r := range got.Results {
		if r.ID == "anchovy" {
			t.Fatal("objective filter leaked a Melbourne entity")
		}
	}
}

func TestClientCorrectTag(t *testing.T) {
	c := newClient(t)
	if err := c.IndexEntities(demoEntities(), c.CanonicalTags()); err != nil {
		t.Fatal(err)
	}
	if got := c.CorrectTag("delicous food"); got != "delicious food" {
		t.Fatalf("typo routing: %q", got)
	}
	if got := c.CorrectTag("Nice Staff"); got != "nice staff" {
		t.Fatalf("case routing: %q", got)
	}
	if got := c.CorrectTag("completely unrelated thing"); got != "completely unrelated thing" {
		t.Fatalf("unmatched tags must pass through: %q", got)
	}
}
