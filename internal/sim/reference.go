package sim

import (
	"strings"

	"saccs/internal/lexicon"
)

// Reference is the conceptual similarity exactly as it was computed before
// phrases were prepared: every call lowercases and splits both strings,
// derives their polarity and walks the taxonomy's hypernym chains. Nothing in
// production calls it. It is kept, unoptimised, as what Conceptual's word
// table, LCA table and kernel are diffed against (the equality and fuzz tests
// here, internal/check's reference ranker); the stopword list and the penalty
// constant are all it shares with them.
type Reference struct {
	tax      *lexicon.Taxonomy
	polarity map[string]int
}

// NewReference returns the reference measure over the built-in taxonomy and
// polarity lexicon.
func NewReference() *Reference {
	return &Reference{tax: lexicon.DefaultTaxonomy(), polarity: lexicon.PolarityLexicon()}
}

func contentWords(phrase string) []string {
	ws := strings.Fields(strings.ToLower(phrase))
	out := ws[:0]
	for _, w := range ws {
		if !stopwords[w] {
			out = append(out, w)
		}
	}
	return out
}

// Phrase is Base with the polarity penalty applied.
func (r *Reference) Phrase(a, b string) float64 {
	s, conflict := r.Base(a, b)
	if conflict {
		s *= polarityPenalty
	}
	return s
}

// Base returns the polarity-blind conceptual similarity and whether the two
// phrases' sentiment polarities conflict.
func (r *Reference) Base(a, b string) (float64, bool) {
	wa, wb := contentWords(a), contentWords(b)
	if len(wa) == 0 || len(wb) == 0 {
		if strings.EqualFold(strings.TrimSpace(a), strings.TrimSpace(b)) && strings.TrimSpace(a) != "" {
			return 1, false
		}
		return 0, false
	}
	s := (r.directional(wa, wb) + r.directional(wb, wa)) / 2
	pa, pb := r.Polarity(a), r.Polarity(b)
	return s, pa*pb < 0
}

// Polarity returns +1, −1 or 0 for a phrase's sentiment orientation, using
// the taxonomy's positive/negative ancestors; a preceding "not"/"no"/"never"
// flips the next sentiment word.
func (r *Reference) Polarity(phrase string) int {
	neg := false
	total := 0
	for _, w := range strings.Fields(strings.ToLower(phrase)) {
		if w == "not" || w == "no" || w == "never" {
			neg = !neg
			continue
		}
		p := r.wordPolarity(w)
		if p == 0 {
			continue
		}
		if neg {
			p = -p
			neg = false
		}
		total += p
	}
	switch {
	case total > 0:
		return 1
	case total < 0:
		return -1
	}
	return 0
}

func (r *Reference) wordPolarity(w string) int {
	if p, ok := r.polarity[w]; ok {
		return p
	}
	// The hop bound is the cycle guard: a cycle never contains
	// "positive"/"negative" (their chains terminate at "polarity").
	for a, hops := w, 0; a != "" && hops < 256; hops++ {
		switch a {
		case "positive":
			return 1
		case "negative":
			return -1
		}
		a = r.tax.Parent(a)
	}
	return 0
}

func (r *Reference) directional(from, to []string) float64 {
	var total float64
	for _, w := range from {
		best := 0.0
		for _, v := range to {
			s := r.word(w, v)
			if s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(from))
}

func (r *Reference) word(a, b string) float64 {
	if a == b {
		return 1
	}
	return r.tax.WuPalmer(a, b)
}
