// Package ir is the information-retrieval baseline of §6.2: an Okapi BM25
// retrieval model over per-entity review documents, strengthened — following
// Ganesan & Zhai [11] — with synonym query expansion so it is competitive
// with tag-based search. It remains keyword-based: negation-blind and
// polarity-blind, which is exactly why SACCS outranks it.
package ir

import (
	"math"
	"sort"

	"saccs/internal/lexicon"
	"saccs/internal/tokenize"
)

// Doc is one searchable document (per entity: its concatenated reviews).
type Doc struct {
	ID     string
	Tokens []string
}

// Scored is one ranked document.
type Scored struct {
	ID    string
	Score float64
}

// BM25 is an inverted-index Okapi BM25 engine.
type BM25 struct {
	K1, B float64

	docLen   map[string]int
	avgLen   float64
	nDocs    int
	postings map[string]map[string]int // term -> docID -> tf
}

// NewBM25 indexes the documents with the standard k1=1.2, b=0.75.
func NewBM25(docs []Doc) *BM25 {
	b := &BM25{
		K1:       1.2,
		B:        0.75,
		docLen:   make(map[string]int, len(docs)),
		postings: map[string]map[string]int{},
		nDocs:    len(docs),
	}
	var total int
	for _, d := range docs {
		b.docLen[d.ID] = len(d.Tokens)
		total += len(d.Tokens)
		for _, tok := range d.Tokens {
			m, ok := b.postings[tok]
			if !ok {
				m = map[string]int{}
				b.postings[tok] = m
			}
			m[d.ID]++
		}
	}
	if len(docs) > 0 {
		b.avgLen = float64(total) / float64(len(docs))
	}
	return b
}

// WeightedTerm is a query term with its contribution weight (expansion terms
// carry less weight than original terms).
type WeightedTerm struct {
	Term   string
	Weight float64
}

// idf returns the BM25 idf with the +1 floor variant (never negative).
func (b *BM25) idf(term string) float64 {
	df := len(b.postings[term])
	return math.Log(1 + (float64(b.nDocs)-float64(df)+0.5)/(float64(df)+0.5))
}

// Search scores every document against the weighted query and returns the
// top k (k<=0 returns all), sorted descending with deterministic ties.
func (b *BM25) Search(query []WeightedTerm, k int) []Scored {
	scores := map[string]float64{}
	for _, qt := range query {
		posting, ok := b.postings[qt.Term]
		if !ok {
			continue
		}
		idf := b.idf(qt.Term)
		for id, tf := range posting {
			dl := float64(b.docLen[id])
			denom := float64(tf) + b.K1*(1-b.B+b.B*dl/b.avgLen)
			scores[id] += qt.Weight * idf * float64(tf) * (b.K1 + 1) / denom
		}
	}
	out := make([]Scored, 0, len(scores))
	for id, s := range scores {
		out = append(out, Scored{ID: id, Score: s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// expansionWeight discounts synonym terms relative to the original keywords.
const expansionWeight = 0.4

// ExpandQuery turns subjective tags into a weighted keyword query: original
// words at weight 1 plus thesaurus synonyms at a discount ([11]'s opinion
// expansion, the "best query combination method" of §6.2).
func ExpandQuery(tags []string) []WeightedTerm {
	weights := map[string]float64{}
	bump := func(term string, w float64) {
		if w > weights[term] {
			weights[term] = w
		}
	}
	for _, tag := range tags {
		for _, w := range tokenize.Words(tag) {
			bump(w, 1)
			for _, syn := range lexicon.Synonyms(w) {
				for _, sw := range tokenize.Words(syn) {
					bump(sw, expansionWeight)
				}
			}
		}
	}
	terms := make([]WeightedTerm, 0, len(weights))
	for term, w := range weights {
		terms = append(terms, WeightedTerm{Term: term, Weight: w})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].Term < terms[j].Term })
	return terms
}
