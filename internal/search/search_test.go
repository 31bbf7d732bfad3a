package search

import (
	"testing"

	"saccs/internal/index"
	"saccs/internal/sim"
)

func TestParseUtterance(t *testing.T) {
	in := ParseUtterance("I want an Italian restaurant in Melbourne that serves delicious food")
	if in.Name != "searchRestaurant" {
		t.Fatalf("intent: %s", in.Name)
	}
	if in.Slots[SlotCuisine] != "italian" || in.Slots[SlotLocation] != "melbourne" {
		t.Fatalf("slots: %v", in.Slots)
	}
	in2 := ParseUtterance("somewhere romantic please")
	if len(in2.Slots) != 0 {
		t.Fatalf("no slots expected: %v", in2.Slots)
	}
}

func TestParseUtteranceWordBoundaries(t *testing.T) {
	cases := []struct {
		utterance string
		cuisine   string
		location  string
	}{
		// Regressions for the substring matcher: slot keywords inside longer
		// words must not fill slots.
		{"a comparison of nearby places", "", ""},
		{"somewhere with indiana-style decor", "", ""},
		{"a frenchified menu would be fun", "", ""},
		// Whole-word mentions still fill, punctuation included.
		{"Italian, in Paris!", "italian", "paris"},
		{"indian food in toronto", "indian", "toronto"},
		{"best ramen in (Sydney)", "", "sydney"},
	}
	for _, tc := range cases {
		in := ParseUtterance(tc.utterance)
		if in.Slots[SlotCuisine] != tc.cuisine {
			t.Errorf("%q: cuisine = %q, want %q", tc.utterance, in.Slots[SlotCuisine], tc.cuisine)
		}
		if in.Slots[SlotLocation] != tc.location {
			t.Errorf("%q: location = %q, want %q", tc.utterance, in.Slots[SlotLocation], tc.location)
		}
	}
}

func buildIndex() *index.Index {
	ix := index.New(sim.NewConceptual(), 0.55)
	es := []index.EntityReviews{
		{EntityID: "vue", ReviewCount: 10, Tags: []string{"good food", "good food", "tasty food", "friendly staff", "friendly staff"}},
		{EntityID: "hut", ReviewCount: 4, Tags: []string{"good food", "rude staff"}},
		{EntityID: "anchovy", ReviewCount: 6, Tags: []string{"creative cooking", "creative cooking", "creative cooking"}},
	}
	ix.Build([]string{"good food", "nice staff", "creative cooking"}, es)
	return ix
}

func TestRankSingleTag(t *testing.T) {
	r := &Ranker{Snap: buildIndex().Current(), ThetaFilter: 0.5}
	got := r.Rank([]string{"vue", "hut", "anchovy"}, []string{"good food"})
	if len(got) < 2 {
		t.Fatalf("rank: %v", got)
	}
	if got[0].EntityID != "vue" {
		t.Fatalf("vue must rank first (more reviews): %v", got)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Score > got[i-1].Score {
			t.Fatal("ranking not sorted")
		}
	}
}

func TestRankIntersectsWithAPI(t *testing.T) {
	r := &Ranker{Snap: buildIndex().Current(), ThetaFilter: 0.5}
	got := r.Rank([]string{"hut"}, []string{"good food"})
	for _, s := range got {
		if s.EntityID != "hut" {
			t.Fatalf("entity outside S_api leaked: %v", got)
		}
	}
}

func TestRankMultiTagIntersection(t *testing.T) {
	r := &Ranker{Snap: buildIndex().Current(), ThetaFilter: 0.5}
	got := r.Rank([]string{"vue", "hut", "anchovy"}, []string{"good food", "nice staff"})
	if len(got) == 0 {
		t.Fatal("empty result")
	}
	// vue matches both tags; hut matches food but its staff is rude.
	if got[0].EntityID != "vue" {
		t.Fatalf("vue must win the intersection: %v", got)
	}
}

func TestRankRelaxationWhenIntersectionEmpty(t *testing.T) {
	r := &Ranker{Snap: buildIndex().Current(), ThetaFilter: 0.5}
	// anchovy only matches creative cooking; no entity matches both tags
	// with exact postings (staff tag excludes anchovy).
	got := r.Rank([]string{"anchovy"}, []string{"creative cooking", "nice staff"})
	if len(got) == 0 {
		t.Fatal("relaxation must return partial matches instead of nothing")
	}
}

func TestRankNoTags(t *testing.T) {
	r := &Ranker{Snap: buildIndex().Current(), ThetaFilter: 0.5}
	got := r.Rank([]string{"a", "b"}, nil)
	if len(got) != 2 {
		t.Fatalf("no-tag rank must pass API results through: %v", got)
	}
}

func TestAggregations(t *testing.T) {
	ix := buildIndex().Current()
	mean := &Ranker{Snap: ix, ThetaFilter: 0.5, Agg: MeanAgg}
	prod := &Ranker{Snap: ix, ThetaFilter: 0.5, Agg: ProductAgg}
	minr := &Ranker{Snap: ix, ThetaFilter: 0.5, Agg: MinAgg}
	api := []string{"vue", "hut", "anchovy"}
	tags := []string{"good food", "nice staff"}
	for _, r := range []*Ranker{mean, prod, minr} {
		got := r.Rank(api, tags)
		if len(got) == 0 {
			t.Fatalf("agg %v produced nothing", r.Agg)
		}
		if got[0].EntityID != "vue" {
			t.Fatalf("agg %v: vue must still win: %v", r.Agg, got)
		}
	}
	// Anchovy matches creative cooking but not nice staff: the product
	// collapses to zero while the mean keeps the partial evidence.
	partial := []string{"creative cooking", "nice staff"}
	gotMean := mean.Rank([]string{"anchovy"}, partial)
	gotProd := prod.Rank([]string{"anchovy"}, partial)
	if len(gotMean) == 0 || len(gotProd) == 0 {
		t.Fatal("rankers must relax")
	}
	if gotProd[0].Score != 0 {
		t.Fatalf("product with missing tag must be 0: %v", gotProd)
	}
	if gotMean[0].Score <= 0 {
		t.Fatalf("mean with one matching tag must be positive: %v", gotMean)
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	r := &Ranker{Snap: buildIndex().Current(), ThetaFilter: 0.5}
	a := r.Rank([]string{"vue", "hut", "anchovy"}, []string{"good food"})
	b := r.Rank([]string{"anchovy", "hut", "vue"}, []string{"good food"})
	if len(a) != len(b) {
		t.Fatal("length mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ordering depends on API order: %v vs %v", a, b)
		}
	}
}

// TestRankCoverageThenScoreOrder pins the full tie-break ladder: tag
// coverage first, aggregate score second, entity ID last — and checks it is
// stable under permuted API result order.
func TestRankCoverageThenScoreOrder(t *testing.T) {
	r := &Ranker{Snap: buildIndex().Current(), ThetaFilter: 0.5}
	api := []string{"vue", "hut", "anchovy"}
	tags := []string{"good food", "nice staff"}
	cases := []struct {
		name string
		api  []string
	}{
		{"input order", []string{"vue", "hut", "anchovy"}},
		{"reversed", []string{"anchovy", "hut", "vue"}},
		{"rotated", []string{"hut", "anchovy", "vue"}},
	}
	want := r.Rank(api, tags)
	// vue covers both tags, hut one, anchovy none: coverage must dominate
	// even though scores alone could order differently.
	if want[0].EntityID != "vue" || want[1].EntityID != "hut" || want[2].EntityID != "anchovy" {
		t.Fatalf("coverage-then-score order wrong: %v", want)
	}
	for _, tc := range cases {
		got := r.Rank(tc.api, tags)
		if len(got) != len(want) {
			t.Fatalf("%s: length %d, want %d", tc.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: position %d = %v, want %v", tc.name, i, got[i], want[i])
			}
		}
	}
}
