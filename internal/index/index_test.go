package index

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"saccs/internal/sim"
)

func testIndex() *Index { return New(sim.NewConceptual(), 0.6) }

func entities() []EntityReviews {
	return []EntityReviews{
		{EntityID: "vue", ReviewCount: 10, Tags: []string{"good food", "tasty food", "nice staff", "friendly staff"}},
		{EntityID: "hut", ReviewCount: 3, Tags: []string{"good food", "rude staff"}},
		{EntityID: "anchovy", ReviewCount: 5, Tags: []string{"amazing pizza", "creative cooking"}},
		{EntityID: "empty", ReviewCount: 2, Tags: nil},
	}
}

func TestBuildAndLookup(t *testing.T) {
	ix := testIndex()
	ix.Build([]string{"good food", "nice staff"}, entities())
	if ix.Len() != 2 || !ix.Has("good food") {
		t.Fatalf("index keys wrong: %v", ix.Tags())
	}
	food := ix.Lookup("good food")
	if len(food) < 2 {
		t.Fatalf("good food postings: %v", food)
	}
	// The entity with no matching tags must be absent.
	for _, e := range food {
		if e.EntityID == "empty" {
			t.Fatal("tagless entity indexed")
		}
	}
}

func TestDegreeOfTruthEquation1(t *testing.T) {
	ix := testIndex()
	// Entity with 1 review and a single exact tag: deg = log(2)/1 * 1.
	es := []EntityReviews{{EntityID: "e", ReviewCount: 1, Tags: []string{"good food"}}}
	ix.AddTag("good food", es)
	got := ix.Lookup("good food")
	if len(got) != 1 {
		t.Fatalf("postings: %v", got)
	}
	want := math.Log(2)
	if math.Abs(got[0].Degree-want) > 1e-12 {
		t.Fatalf("Eq.1 degree: got %v want %v", got[0].Degree, want)
	}
}

func TestReviewCountWeighting(t *testing.T) {
	// At the same mention rate, more reviews → higher degree (the paper
	// privileges entities with more reviews: statistical significance).
	ix := testIndex()
	manyTags := make([]string, 25)
	for i := range manyTags {
		manyTags[i] = "good food"
	}
	es := []EntityReviews{
		{EntityID: "few", ReviewCount: 2, Tags: []string{"good food"}},
		{EntityID: "many", ReviewCount: 50, Tags: manyTags},
	}
	ix.AddTag("good food", es)
	got := ix.Lookup("good food")
	if got[0].EntityID != "many" {
		t.Fatalf("review-count weighting failed: %v", got)
	}
}

func TestFrequencyFactorAblation(t *testing.T) {
	// With the mention-rate factor off, a single confirmation in 50 reviews
	// scores as well as 25 confirmations; with it on, it must not.
	es := []EntityReviews{
		{EntityID: "sparse", ReviewCount: 50, Tags: []string{"good food"}},
		{EntityID: "dense", ReviewCount: 50, Tags: func() []string {
			out := make([]string, 25)
			for i := range out {
				out[i] = "good food"
			}
			return out
		}()},
	}
	on := testIndex()
	on.AddTag("good food", es)
	got := on.Lookup("good food")
	if got[0].EntityID != "dense" || got[0].Degree <= got[1].Degree {
		t.Fatalf("frequency factor should favor dense confirmation: %v", got)
	}
	off := testIndex()
	off.SetFrequencyAware(false)
	off.AddTag("good food", es)
	got = off.Lookup("good food")
	if len(got) != 2 || got[0].Degree != got[1].Degree {
		t.Fatalf("without the factor both score Eq. 1 equally: %v", got)
	}
}

func TestMeanNotSumOverMatches(t *testing.T) {
	// Eq. 1 divides by |T_e^tag|: many weak matches must not beat one
	// perfect match at equal review counts.
	ix := testIndex()
	es := []EntityReviews{
		{EntityID: "exact", ReviewCount: 5, Tags: []string{"good food"}},
		{EntityID: "weak", ReviewCount: 5, Tags: []string{"amazing pizza", "tasty dishes", "creative cooking"}},
	}
	ix.AddTag("good food", es)
	got := ix.Lookup("good food")
	if len(got) == 0 || got[0].EntityID != "exact" {
		t.Fatalf("mean semantics violated: %v", got)
	}
}

func TestConceptualMatchIndexesPizza(t *testing.T) {
	// Fig. 1: E5's "amazing pizza" must be indexed under "good food".
	ix := testIndex()
	ix.AddTag("good food", entities())
	found := false
	for _, e := range ix.Lookup("good food") {
		if e.EntityID == "anchovy" {
			found = true
		}
	}
	if !found {
		t.Fatal("conceptual similarity failed to index amazing pizza under good food")
	}
}

func TestNegativeTagsExcluded(t *testing.T) {
	ix := testIndex()
	es := []EntityReviews{
		{EntityID: "bad", ReviewCount: 5, Tags: []string{"rude staff", "unhelpful staff"}},
		{EntityID: "good", ReviewCount: 5, Tags: []string{"friendly staff"}},
	}
	ix.AddTag("nice staff", es)
	for _, e := range ix.Lookup("nice staff") {
		if e.EntityID == "bad" {
			t.Fatalf("negative mentions must not support a positive tag: %v", e)
		}
	}
}

func TestLookupSimilarUnknownTag(t *testing.T) {
	// §3.2: "delicious food" is not indexed; it must be answered from
	// similar indexed tags with degree × similarity.
	ix := testIndex()
	ix.Build([]string{"good food", "creative cooking"}, entities())
	got := ix.Resolve("delicious food", 0.5)
	if len(got) == 0 {
		t.Fatal("no results for similar unknown tag")
	}
	exact := ix.Lookup("good food")
	var vueSim, vueExact float64
	for _, e := range got {
		if e.EntityID == "vue" {
			vueSim = e.Degree
		}
	}
	for _, e := range exact {
		if e.EntityID == "vue" {
			vueExact = e.Degree
		}
	}
	if vueSim <= 0 || vueSim > vueExact+1e-9 {
		t.Fatalf("similar lookup must discount by similarity: %v vs exact %v", vueSim, vueExact)
	}
}

func TestLookupSimilarSumsContributions(t *testing.T) {
	// An entity matching two similar index tags accumulates both (the S_t2
	// example sums s1·0.76 + s2·0.94 for Anchovy).
	ix := testIndex()
	ix.Build([]string{"good food", "creative cooking"}, entities())
	union := ix.Resolve("delicious food", 0.3)
	var anchovy float64
	for _, e := range union {
		if e.EntityID == "anchovy" {
			anchovy = e.Degree
		}
	}
	onlyFood := 0.0
	m := sim.NewConceptual()
	s1 := m.Phrase("delicious food", "good food")
	for _, e := range ix.Lookup("good food") {
		if e.EntityID == "anchovy" {
			onlyFood = s1 * e.Degree
		}
	}
	if anchovy <= onlyFood {
		t.Fatalf("union must accumulate across tags: %v vs %v", anchovy, onlyFood)
	}
}

func TestResolve(t *testing.T) {
	ix := testIndex()
	ix.Build([]string{"good food"}, entities())
	exact := ix.Resolve("good food", 0.5)
	if len(exact) == 0 {
		t.Fatal("exact resolve empty")
	}
	similar := ix.Resolve("delicious food", 0.5)
	if len(similar) == 0 {
		t.Fatal("similar resolve empty")
	}
}

func TestPostingsSorted(t *testing.T) {
	ix := testIndex()
	rng := rand.New(rand.NewSource(1))
	var es []EntityReviews
	for i := 0; i < 20; i++ {
		es = append(es, EntityReviews{
			EntityID:    string(rune('a' + i)),
			ReviewCount: 1 + rng.Intn(30),
			Tags:        []string{"good food"},
		})
	}
	ix.AddTag("good food", es)
	got := ix.Lookup("good food")
	for i := 1; i < len(got); i++ {
		if got[i].Degree > got[i-1].Degree {
			t.Fatal("postings must be sorted by degree desc")
		}
	}
}

func TestAddTagIdempotentKeys(t *testing.T) {
	ix := testIndex()
	ix.AddTag("good food", entities())
	ix.AddTag("good food", entities())
	if ix.Len() != 1 {
		t.Fatalf("re-adding a tag must not duplicate keys: %v", ix.Tags())
	}
}

func TestHistory(t *testing.T) {
	h := NewHistory()
	h.Add("romantic ambiance")
	h.Add("romantic ambiance") // dup
	h.Add("")                  // empty ignored
	h.Add("quick service")
	if h.Len() != 2 {
		t.Fatalf("history length %d", h.Len())
	}
	got := h.Drain()
	if len(got) != 2 || got[0] != "romantic ambiance" {
		t.Fatalf("drain: %v", got)
	}
	if h.Len() != 0 {
		t.Fatal("drain must clear")
	}
	h.Add("romantic ambiance")
	if h.Len() != 0 {
		t.Fatal("drained tags must not re-queue")
	}
}

func TestLookupReturnsCopy(t *testing.T) {
	ix := testIndex()
	ix.AddTag("good food", entities())
	got := ix.Lookup("good food")
	if len(got) == 0 {
		t.Fatal("empty")
	}
	got[0].Degree = -1
	again := ix.Lookup("good food")
	if again[0].Degree == -1 {
		t.Fatal("Lookup must not expose internal storage")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ix := testIndex()
	ix.Build([]string{"good food", "nice staff"}, entities())
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := testIndex()
	if err := restored.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != ix.Len() {
		t.Fatalf("tag count: %d vs %d", restored.Len(), ix.Len())
	}
	for _, tag := range ix.Tags() {
		a, b := ix.Lookup(tag), restored.Lookup(tag)
		if len(a) != len(b) {
			t.Fatalf("postings for %q differ", tag)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("entry mismatch under %q: %v vs %v", tag, a[i], b[i])
			}
		}
	}
	// Loaded index still answers similarity queries.
	if got := restored.Resolve("delicious food", 0.45); len(got) == 0 {
		t.Fatal("restored index cannot resolve similar tags")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	ix := testIndex()
	if err := ix.Load(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage must error")
	}
	if err := ix.Load(strings.NewReader(`{"version":99,"tags":[]}`)); err == nil {
		t.Fatal("unknown version must error")
	}
	if err := ix.Load(strings.NewReader(
		`{"version":1,"tags":[{"tag":"a","entries":[]},{"tag":"a","entries":[]}]}`)); err == nil {
		t.Fatal("duplicate tags must error")
	}
}

// TestParallelBuildDeterministic pins the tentpole's merge contract: a Build
// fanned out across many workers must produce an index byte-identical to a
// serial one — same key order, same posting order, same degrees.
func TestParallelBuildDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocabulary := []string{
		"good food", "tasty food", "bland food", "nice staff", "rude staff",
		"friendly staff", "amazing pizza", "creative cooking", "quiet atmosphere",
		"great view", "fast service", "slow service",
	}
	var es []EntityReviews
	for i := 0; i < 60; i++ {
		n := 1 + rng.Intn(8)
		tags := make([]string, n)
		for j := range tags {
			tags[j] = vocabulary[rng.Intn(len(vocabulary))]
		}
		es = append(es, EntityReviews{
			EntityID:    "e" + strings.Repeat("x", i%3) + string(rune('a'+i%26)) + string(rune('0'+i/26)),
			ReviewCount: 1 + rng.Intn(12),
			Tags:        tags,
		})
	}
	buildTags := []string{"good food", "nice staff", "creative cooking", "fast service", "great view"}

	snap := func(workers int) []byte {
		ix := testIndex()
		ix.SetWorkers(workers)
		ix.Build(buildTags, es)
		// One standalone AddTag as well, to cover its chunked fan-out.
		ix.AddTag("quiet atmosphere", es)
		var buf bytes.Buffer
		if err := ix.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	serial := snap(1)
	for _, w := range []int{2, 4, 8} {
		if got := snap(w); !bytes.Equal(serial, got) {
			t.Fatalf("workers=%d produced a different index than serial", w)
		}
	}
}

// TestSetWorkersBounds checks the worker-count plumbing.
func TestSetWorkersBounds(t *testing.T) {
	ix := testIndex()
	ix.SetWorkers(-3)
	ix.Build([]string{"good food"}, entities())
	ix.SetWorkers(4)
	ix.Build([]string{"nice staff"}, entities())
	if ix.Len() != 2 {
		t.Fatalf("builds under different worker counts: %v", ix.Tags())
	}
}
