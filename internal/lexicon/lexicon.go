// Package lexicon holds the domain knowledge the SACCS reproduction is built
// on: the 18 subjective restaurant features of Moura & Souki [39] used in the
// paper's Table 2 evaluation, per-domain aspect/opinion lexicons for the
// S1–S4 datasets of Table 3 (restaurants, electronics, hotels), a synonym
// thesaurus for IR query expansion [11], and the concept taxonomy behind the
// conceptual similarity of §3.1 (pizza IS-A food).
package lexicon

import "strings"

// Feature is one inherently subjective attribute of an entity: a canonical
// subjective tag (aspect + opinion) together with the aspect and opinion
// surface variants review writers use for it.
type Feature struct {
	// ID indexes the feature in an entity's latent quality vector.
	ID int
	// Name is the canonical subjective tag, e.g. "delicious food".
	Name string
	// Aspect is the canonical aspect term, e.g. "food".
	Aspect string
	// Opinion is the canonical positive opinion term, e.g. "delicious".
	Opinion string
	// AspectSyns are surface variants of the aspect (may be multi-word).
	AspectSyns []string
	// PosOps are positive opinion variants (may be multi-word).
	PosOps []string
	// NegOps are negative opinion variants.
	NegOps []string
}

// Domain bundles the lexical knowledge of one review domain.
type Domain struct {
	// Name identifies the domain ("restaurants", "electronics", "hotels").
	Name string
	// Features are the domain's subjective features.
	Features []Feature
	// Fillers are sentence glue words specific to the domain.
	Fillers []string
	// Entities are name fragments used to mint entity names.
	Entities []string
}

func dedup(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// Synonyms returns thesaurus expansions for a word across all built-in
// domains: every other surface form of any feature that lists the word as an
// aspect or opinion variant. This powers the IR baseline's query expansion.
func Synonyms(word string) []string {
	word = strings.ToLower(word)
	var out []string
	add := func(vs []string) {
		has := false
		for _, v := range vs {
			if v == word {
				has = true
				break
			}
		}
		if !has {
			return
		}
		for _, v := range vs {
			if v != word {
				out = append(out, v)
			}
		}
	}
	for _, d := range []*Domain{Restaurants(), Electronics(), Hotels()} {
		for _, f := range d.Features {
			add(f.AspectSyns)
			add(f.PosOps)
			add(f.NegOps)
		}
	}
	return dedup(out)
}

// PolarityLexicon maps every opinion word that appears across the built-in
// domains to its sentiment orientation: +1 for positive variants, −1 for
// negative ones. Words used with both orientations (rare) resolve by
// majority and drop to 0 on a tie. Stop-like tokens inside multi-word
// variants ("a killer") are skipped.
func PolarityLexicon() map[string]int {
	votes := map[string]int{}
	skip := map[string]bool{"a": true, "an": true, "the": true, "of": true,
		"to": true, "its": true, "bit": true, "on": true, "in": true}
	addWords := func(variant string, v int) {
		for _, w := range strings.Fields(variant) {
			if !skip[w] {
				votes[w] += v
			}
		}
	}
	for _, d := range []*Domain{Restaurants(), Electronics(), Hotels()} {
		for _, f := range d.Features {
			for _, o := range f.PosOps {
				addWords(o, 1)
			}
			for _, o := range f.NegOps {
				addWords(o, -1)
			}
		}
	}
	out := make(map[string]int, len(votes))
	for w, v := range votes {
		switch {
		case v > 0:
			out[w] = 1
		case v < 0:
			out[w] = -1
		}
	}
	return out
}
