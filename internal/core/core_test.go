package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"saccs/internal/corpus"
	"saccs/internal/index"
	"saccs/internal/lexicon"
	"saccs/internal/pairing"
	"saccs/internal/parse"
	"saccs/internal/search"
	"saccs/internal/sim"
	"saccs/internal/tokenize"
	"saccs/internal/yelp"
)

// GoldTagger tags sentences by replaying the generator's gold labels, so the
// tests below can isolate pairing, indexing and ranking from tagging noise.
// It matches sentences by their joined token text.
type GoldTagger struct {
	gold map[string][]tokenize.Label
}

// NewGoldTagger indexes gold sentences for lookup.
func NewGoldTagger(sentences []corpus.Sentence) *GoldTagger {
	g := &GoldTagger{gold: map[string][]tokenize.Label{}}
	for _, s := range sentences {
		g.gold[strings.Join(s.Tokens, " ")] = s.Labels
	}
	return g
}

// Predict returns the stored gold labels, or all-O for unknown sentences.
func (g *GoldTagger) Predict(tokens []string) []tokenize.Label {
	if labels, ok := g.gold[strings.Join(tokens, " ")]; ok {
		return labels
	}
	return make([]tokenize.Label, len(tokens))
}

// goldIndex generates the fast world and indexes tags over its gold review
// tags, through the producer every index build uses.
func goldIndex(t *testing.T, tags []string) (*yelp.World, *index.Index) {
	t.Helper()
	w := yelp.Generate(yelp.FastConfig())
	reviews, err := EntityReviews(context.Background(), w.IDs(), w.Reviews(), (*yelp.Review).GoldTags)
	if err != nil {
		t.Fatal(err)
	}
	ix := index.New(sim.NewConceptual(), ThetaIndex)
	ix.Build(tags, reviews)
	return w, ix
}

// rankAll runs Algorithm 1 over every entity of w at the paper's θ_filter.
func rankAll(t *testing.T, w *yelp.World, ix *index.Index, tags []string, topK int) []search.Scored {
	t.Helper()
	snap := ix.Current()
	rk := search.Ranker{Snap: snap, ThetaFilter: ThetaFilter, Agg: search.MeanAgg}
	got, err := rk.TopK(context.Background(), nil, search.NewCandidates(snap, w.IDs()), tags, topK)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestEntityReviewsRankTracksLatentQuality builds the 18-tag index from the
// producer's gold review tags and checks that Algorithm 1's ranking tracks
// the generator's latent quality.
func TestEntityReviewsRankTracksLatentQuality(t *testing.T) {
	w, ix := goldIndex(t, CanonicalTags(lexicon.Restaurants()))
	if ix.Len() != 18 {
		t.Fatalf("indexed %d tags, want 18", ix.Len())
	}
	got := rankAll(t, w, ix, []string{"nice staff"}, 0)
	if len(got) < 6 {
		t.Fatalf("too few results: %d", len(got))
	}
	// The ranking must track latent staff quality statistically: the top
	// half should average higher staff quality than the bottom half.
	// (Eq. 1's log(|Re|+1) popularity weight makes single-pair comparisons
	// unreliable by design.)
	staffFeat := 4 // "nice staff" in the restaurants domain
	half := len(got) / 2
	var topQ, botQ float64
	for i, sc := range got {
		q := w.Entity(sc.EntityID).Quality[staffFeat]
		if i < half {
			topQ += q
		} else {
			botQ += q
		}
	}
	topQ /= float64(half)
	botQ /= float64(len(got) - half)
	if topQ <= botQ {
		t.Fatalf("ranking contradicts latent quality: top half %.2f vs bottom half %.2f", topQ, botQ)
	}
}

// TestQueryEndToEnd drives an utterance the way a query reads one: the
// dialog parse fills the objective slots, the extractor yields the
// subjective tags, and Algorithm 1 filters and ranks the entities the slots
// keep over an index built by the producer.
func TestQueryEndToEnd(t *testing.T) {
	utterance := "I want an Italian restaurant in Montreal with delicious food and nice staff"
	gold := corpus.Sentence{
		Tokens: tokenize.Words(utterance),
		Labels: []tokenize.Label{
			tokenize.O, tokenize.O, tokenize.O, tokenize.O, tokenize.O,
			tokenize.O, tokenize.O, tokenize.O, tokenize.BOP, tokenize.BAS,
			tokenize.O, tokenize.BOP, tokenize.BAS,
		},
	}
	ex := &Extractor{
		Tagger: NewGoldTagger([]corpus.Sentence{gold}),
		Pairer: ServedPairer(lexicon.Restaurants()),
	}
	intent := search.ParseUtterance(utterance)
	if intent.Name != "searchRestaurant" || intent.Slots[search.SlotCuisine] != "italian" {
		t.Fatalf("intent %s, slots %v", intent.Name, intent.Slots)
	}
	tags := ex.ExtractTags(utterance)
	if strings.Join(tags, "|") != "delicious food|nice staff" {
		t.Fatalf("expected both subjective tags, got %v", tags)
	}
	w, ix := goldIndex(t, CanonicalTags(lexicon.Restaurants()))
	for _, e := range w.Entities {
		// The world is all Italian/Montreal: the slots keep every entity.
		if !strings.EqualFold(e.Cuisine, intent.Slots[search.SlotCuisine]) ||
			!strings.EqualFold(e.City, intent.Slots[search.SlotLocation]) {
			t.Fatalf("entity %s (%s, %s) outside the slots %v", e.ID, e.Cuisine, e.City, intent.Slots)
		}
	}
	for _, tag := range tags {
		if !ix.Has(tag) {
			t.Fatalf("tag %q is not indexed", tag)
		}
	}
	results := rankAll(t, w, ix, tags, 10)
	if len(results) != 10 {
		t.Fatalf("TopK 10 returned %d results", len(results))
	}
}

// TestEntityReviewsCancelled checks that a context cancelled mid-build
// returns its error and no partial result.
func TestEntityReviewsCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ids := []string{"a", "b", "c"}
	got, err := EntityReviews(ctx, ids, [][]string{{"r"}, {"r"}, {"r"}}, func(r string) []string {
		cancel()
		return []string{r}
	})
	if !errors.Is(err, context.Canceled) || got != nil {
		t.Fatalf("cancelled build returned %v, %v", got, err)
	}
}

// TestReviewRepeatsCountOnce pins the dedup rule of DESIGN.md §2 on both
// per-review tag functions: a review that repeats a mention contributes
// the tag once, and the producer counts it once per review.
func TestReviewRepeatsCountOnce(t *testing.T) {
	tokens := []string{"the", "food", "is", "delicious", "."}
	labels := []tokenize.Label{tokenize.O, tokenize.BAS, tokenize.O, tokenize.BOP, tokenize.O}
	mention := corpus.Mention{
		Aspect:  tokenize.Span{Kind: tokenize.AspectSpan, Start: 1, End: 2},
		Opinion: tokenize.Span{Kind: tokenize.OpinionSpan, Start: 3, End: 4},
	}
	sent := corpus.Sentence{Tokens: tokens, Labels: labels, Mentions: []corpus.Mention{mention}}
	review := &yelp.Review{
		Sentences: []corpus.Sentence{sent, sent},
		Text:      "The food is delicious. The food is delicious.",
	}
	ex := &Extractor{Tagger: NewGoldTagger([]corpus.Sentence{sent}), Pairer: ServedPairer(lexicon.Restaurants())}
	perReview := map[string]func(*yelp.Review) []string{
		"extractor": func(r *yelp.Review) []string { return ex.ExtractTags(r.Text) },
		"gold":      (*yelp.Review).GoldTags,
	}
	for name, tags := range perReview {
		if got := tags(review); len(got) != 1 || got[0] != "delicious food" {
			t.Fatalf("%s: a review repeating one mention gave %v, want [delicious food]", name, got)
		}
		got, err := EntityReviews(context.Background(), []string{"e"}, [][]*yelp.Review{{review, review}}, tags)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].ReviewCount != 2 || strings.Join(got[0].Tags, "|") != "delicious food|delicious food" {
			t.Fatalf("%s: two repeating reviews gave %+v, want the tag once per review", name, got[0])
		}
	}
}

func TestExtractorPipeline(t *testing.T) {
	// A handcrafted sentence through a gold tagger + tree pairer.
	tokens := []string{"the", "food", "is", "delicious", "and", "the", "staff", "is", "friendly", "."}
	labels := []tokenize.Label{
		tokenize.O, tokenize.BAS, tokenize.O, tokenize.BOP, tokenize.O,
		tokenize.O, tokenize.BAS, tokenize.O, tokenize.BOP, tokenize.O,
	}
	gt := NewGoldTagger([]corpus.Sentence{{Tokens: tokens, Labels: labels}})
	ex := &Extractor{
		Tagger: gt,
		Pairer: pairing.Tree{Lex: parse.DomainLexicon(lexicon.Restaurants()), FromOpinions: true},
	}
	tags := ex.ExtractFromTokens(tokens)
	if len(tags) != 2 {
		t.Fatalf("tags: %v", tags)
	}
	want := map[string]bool{"delicious food": true, "friendly staff": true}
	for _, tag := range tags {
		if !want[tag] {
			t.Fatalf("unexpected tag %q in %v", tag, tags)
		}
	}
}

func TestExtractTagsMultiSentence(t *testing.T) {
	s1 := []string{"the", "food", "is", "delicious", "."}
	l1 := []tokenize.Label{tokenize.O, tokenize.BAS, tokenize.O, tokenize.BOP, tokenize.O}
	gt := NewGoldTagger([]corpus.Sentence{{Tokens: s1, Labels: l1}})
	ex := &Extractor{
		Tagger: gt,
		Pairer: pairing.WordDistance{},
	}
	tags := ex.ExtractTags("The food is delicious. The food is delicious.")
	if len(tags) != 1 || tags[0] != "delicious food" {
		t.Fatalf("dedup across sentences failed: %v", tags)
	}
}

func TestGoldTaggerFallback(t *testing.T) {
	gt := NewGoldTagger(nil)
	labels := gt.Predict([]string{"anything", "here"})
	for _, l := range labels {
		if l != tokenize.O {
			t.Fatal("unknown sentences must be all-O")
		}
	}
}

func TestClassifierPairerThreshold(t *testing.T) {
	// A degenerate always-0.5 classifier with threshold 0.9 yields no pairs.
	// (Exercises the adapter without training a model.)
	p := ClassifierPairer{C: nil, Threshold: 0.9}
	_ = p // constructing with nil C is fine as long as Pairs isn't called
}

func TestCanonicalTags(t *testing.T) {
	tags := CanonicalTags(lexicon.Restaurants())
	if len(tags) != 18 {
		t.Fatalf("canonical tags: %d", len(tags))
	}
	for i := 1; i < len(tags); i++ {
		if tags[i] < tags[i-1] {
			t.Fatal("tags must be sorted")
		}
	}
}

func TestNeuralVsGoldSourceAgreement(t *testing.T) {
	// With a gold tagger inside the extractor, the extracted tags of a review
	// text and its gold tags must overlap.
	w := yelp.Generate(yelp.FastConfig())
	var sentences []corpus.Sentence
	for _, e := range w.Entities {
		for _, r := range e.Reviews {
			sentences = append(sentences, r.Sentences...)
		}
	}
	ex := &Extractor{
		Tagger: NewGoldTagger(sentences),
		Pairer: ServedPairer(w.Domain),
	}
	r := w.Entities[0].Reviews[0]
	nt, gt := ex.ExtractTags(r.Text), r.GoldTags()
	if len(gt) == 0 {
		t.Skip("review without mentions")
	}
	goldSet := map[string]bool{}
	for _, tag := range gt {
		goldSet[tag] = true
	}
	overlap := 0
	for _, tag := range nt {
		if goldSet[tag] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Fatalf("gold-driven pipeline recovered none of the gold tags: %v vs %v", nt, gt)
	}
}
