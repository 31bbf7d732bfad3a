package ir

import (
	"testing"

	"saccs/internal/tokenize"
)

func docs() []Doc {
	return []Doc{
		{ID: "a", Tokens: tokenize.Words("the food is delicious and the staff is friendly")},
		{ID: "b", Tokens: tokenize.Words("the food is bland but the view is stunning")},
		{ID: "c", Tokens: tokenize.Words("parking took a while and the place opened in 2019")},
		{ID: "d", Tokens: tokenize.Words("delicious delicious delicious food food wonderful")},
	}
}

func TestBM25RanksRelevantFirst(t *testing.T) {
	b := NewBM25(docs())
	got := b.Search(PlainQuery([]string{"delicious food"}), 0)
	if len(got) < 2 {
		t.Fatalf("results: %v", got)
	}
	if got[0].ID != "d" && got[0].ID != "a" {
		t.Fatalf("irrelevant doc ranked first: %v", got)
	}
	for _, s := range got {
		if s.ID == "c" && s.Score >= got[0].Score {
			t.Fatal("doc without query terms must not top the list")
		}
	}
}

func TestBM25TopK(t *testing.T) {
	b := NewBM25(docs())
	got := b.Search(PlainQuery([]string{"food"}), 1)
	if len(got) != 1 {
		t.Fatalf("k=1 returned %d", len(got))
	}
}

func TestBM25LengthNormalization(t *testing.T) {
	long := Doc{ID: "long", Tokens: append(tokenize.Words("food"), make([]string, 0)...)}
	for i := 0; i < 200; i++ {
		long.Tokens = append(long.Tokens, "filler")
	}
	short := Doc{ID: "short", Tokens: tokenize.Words("great food here")}
	b := NewBM25([]Doc{long, short})
	got := b.Search(PlainQuery([]string{"food"}), 0)
	if got[0].ID != "short" {
		t.Fatalf("length normalization failed: %v", got)
	}
}

func TestBM25EmptyQueryAndIndex(t *testing.T) {
	b := NewBM25(nil)
	if got := b.Search(PlainQuery([]string{"food"}), 5); len(got) != 0 {
		t.Fatalf("empty index: %v", got)
	}
	b2 := NewBM25(docs())
	if got := b2.Search(nil, 5); len(got) != 0 {
		t.Fatalf("empty query: %v", got)
	}
}

func TestExpandQueryAddsSynonyms(t *testing.T) {
	terms := ExpandQuery([]string{"delicious food"})
	var hasOrig, hasSyn bool
	for _, wt := range terms {
		if wt.Term == "delicious" && wt.Weight == 1 {
			hasOrig = true
		}
		if wt.Term == "tasty" && wt.Weight < 1 && wt.Weight > 0 {
			hasSyn = true
		}
	}
	if !hasOrig || !hasSyn {
		t.Fatalf("expansion missing terms: %v", terms)
	}
}

func TestExpandQueryKeepsMaxWeight(t *testing.T) {
	// A word that is both an original term and a synonym of another keeps
	// weight 1.
	terms := ExpandQuery([]string{"delicious food", "tasty dishes"})
	for _, wt := range terms {
		if wt.Term == "tasty" && wt.Weight != 1 {
			t.Fatalf("original term downweighted: %v", wt)
		}
	}
}

func TestExpansionHelpsRecall(t *testing.T) {
	// Document says "tasty", query says "delicious": plain misses, expanded hits.
	b := NewBM25([]Doc{
		{ID: "x", Tokens: tokenize.Words("very tasty plates here")},
	})
	plain := b.Search(PlainQuery([]string{"delicious"}), 0)
	expanded := b.Search(ExpandQuery([]string{"delicious"}), 0)
	if len(plain) != 0 {
		t.Fatalf("plain query should miss: %v", plain)
	}
	if len(expanded) == 0 {
		t.Fatal("expanded query should hit the synonym")
	}
}

func TestIRNegationBlind(t *testing.T) {
	// The documented weakness: "not delicious" still matches "delicious".
	b := NewBM25([]Doc{
		{ID: "neg", Tokens: tokenize.Words("the food is not delicious at all")},
	})
	got := b.Search(PlainQuery([]string{"delicious food"}), 0)
	if len(got) == 0 {
		t.Fatal("keyword IR must (wrongly) match negated mentions — that's the point of the baseline")
	}
}

// PlainQuery is the expansion-free variant for ablations.
func PlainQuery(tags []string) []WeightedTerm {
	seen := map[string]bool{}
	var terms []WeightedTerm
	for _, tag := range tags {
		for _, w := range tokenize.Words(tag) {
			if !seen[w] {
				seen[w] = true
				terms = append(terms, WeightedTerm{Term: w, Weight: 1})
			}
		}
	}
	return terms
}
