// Package sim implements the phrase similarity of §3.1: conceptual
// similarity, which besides surface identity considers the nature of words
// through an IS-A taxonomy ("amazing pizza" matches "good food" because pizza
// is a kind of food), and a plain embedding-cosine measure used as the
// ablation baseline the paper says works worse on short subjective tags.
//
// Every measure works in two steps: Prepare analyses one phrase once, Score
// compares two prepared phrases. The index prepares each of its keys when a
// generation is sealed and a query tag once per probe, so the vocabulary scan
// of §3.2 is one Score per key and touches no string.
package sim

import (
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"saccs/internal/lexicon"
	"saccs/internal/mat"
)

// Measure scores the similarity of two short phrases in [0, 1].
type Measure interface {
	// Prepare analyses phrase into p, reusing p's storage. A prepared phrase
	// may keep substrings of phrase and is only meaningful to the measure
	// that prepared it.
	Prepare(phrase string, p *Prepared)
	// Score compares two phrases this measure prepared: the polarity-blind
	// similarity, and whether their sentiment polarities conflict (always
	// false for a measure without a notion of polarity). It allocates
	// nothing and is safe for concurrent use.
	Score(a, b *Prepared) (base float64, conflict bool)
	// Phrase is Penalize(Score) of the two phrases, each prepared on the
	// spot.
	Phrase(a, b string) float64
}

// Prepared is the analysed form of one phrase. The zero value is ready for
// Prepare; each measure fills the fields it scores by.
type Prepared struct {
	// Conceptual: the content words, the phrase's sentiment polarity, and
	// in text the trimmed original, which decides the score when either side
	// has no content word.
	words []word
	pol   int8
	// PhraseFunc: the phrase itself.
	text string
	// Cosine: the phrase embedding.
	vec mat.Vec
	// Blend: the phrase as prepared by each blended measure.
	sub []Prepared
}

// word is one content word of a prepared phrase.
type word struct {
	// id is the word's concept number in the measure's taxonomy table, or -1
	// for a word the taxonomy does not hold.
	id int32
	// raw is the word itself when id < 0: equality with another unknown
	// word is all it can score by.
	raw string
}

// polarityPenalty scales the similarity of phrases with opposite sentiment
// polarity ("not delicious food" vs "delicious food").
const polarityPenalty = 0.1

// Penalize turns a Score into the §3.1 phrase similarity: phrases whose
// sentiment polarities conflict (one positive, one negative — negation
// counts) are heavily penalized, so a tag extracted from "the food was not
// delicious" does not strengthen the index entry for "delicious food".
func Penalize(base float64, conflict bool) float64 {
	if conflict {
		base *= polarityPenalty
	}
	return base
}

func phrase(m Measure, a, b string) float64 {
	var pa, pb Prepared
	m.Prepare(a, &pa)
	m.Prepare(b, &pb)
	return Penalize(m.Score(&pa, &pb))
}

// stopwords are ignored when aligning phrase words.
var stopwords = map[string]bool{
	"the": true, "a": true, "an": true, "of": true, "is": true, "are": true,
	"and": true, "with": true, "very": true, "really": true,
}

// negators flip the polarity of the next sentiment word.
var negators = [...]string{"not", "no", "never"}

// wordInfo is everything Prepare needs to know about one lowercase word.
type wordInfo struct {
	id      int32 // concept number, -1 outside the taxonomy
	pol     int8  // the word's own sentiment orientation
	stop    bool
	negator bool
}

// Conceptual is the taxonomy-backed similarity: each word of one phrase is
// greedily aligned to its best conceptual match in the other (exact match 1,
// otherwise Wu–Palmer over the IS-A graph), and the two directions are
// averaged. It is immutable: the taxonomy and polarity lexicon are compiled
// at construction into a word table and a concept × concept table of lowest
// common ancestor depths, so Score is integer lookups and one division per
// word pair.
type Conceptual struct {
	words map[string]wordInfo
	// depth[i] is concept i's IS-A distance from its root; lca[i*n+j] the
	// depth of the lowest common ancestor of concepts i and j, 0 when they
	// share none. A shared root also reads 0, and scores 0 either way.
	n     int
	depth []uint8
	lca   []uint8
}

var defaultConceptual = sync.OnceValue(func() *Conceptual {
	return compile(lexicon.DefaultTaxonomy(), lexicon.PolarityLexicon())
})

// NewConceptual returns the Conceptual measure over the built-in taxonomy
// and polarity lexicon. The measure is immutable and compiled once per
// process.
func NewConceptual() *Conceptual { return defaultConceptual() }

func compile(tax *lexicon.Taxonomy, polarity map[string]int) *Conceptual {
	concepts := tax.Concepts()
	n := len(concepts)
	c := &Conceptual{
		words: make(map[string]wordInfo, n+len(polarity)),
		n:     n,
		depth: make([]uint8, n),
		lca:   make([]uint8, n*n),
	}
	// A word's own orientation is the lexicon's, else that of its first
	// positive / negative ancestor.
	wordPolarity := func(w string) int8 {
		if p, ok := polarity[w]; ok {
			return int8(p)
		}
		for _, a := range tax.Ancestors(w) {
			switch a {
			case "positive":
				return 1
			case "negative":
				return -1
			}
		}
		return 0
	}
	add := func(w string, id int32) {
		if _, ok := c.words[w]; !ok {
			c.words[w] = wordInfo{id: id, pol: wordPolarity(w), stop: stopwords[w]}
		}
	}
	for i, w := range concepts {
		add(w, int32(i))
	}
	for w := range polarity {
		add(w, -1)
	}
	for w := range stopwords {
		add(w, -1)
	}
	for _, w := range negators {
		add(w, -1)
		info := c.words[w]
		info.negator = true
		c.words[w] = info
	}

	// chains[i] is concept i's hypernym chain as concept numbers, itself
	// first.
	chains := make([][]int32, n)
	for i, name := range concepts {
		for _, a := range tax.Ancestors(name) {
			chains[i] = append(chains[i], c.words[a].id)
		}
		if len(chains[i]) > 256 {
			panic("sim: taxonomy deeper than the LCA table's byte depths")
		}
		c.depth[i] = uint8(len(chains[i]) - 1)
	}
	// The lowest common ancestor of i and j is the first member of j's chain
	// that is on i's.
	onChain := make([]int32, n) // onChain[a] == i+1: a is on i's chain
	for i := range chains {
		for _, a := range chains[i] {
			onChain[a] = int32(i + 1)
		}
		for j := range chains {
			for _, a := range chains[j] {
				if onChain[a] == int32(i+1) {
					c.lca[i*n+j] = c.depth[a]
					break
				}
			}
		}
	}
	return c
}

// nextField returns the bounds of the first whitespace-separated field of s
// at or after byte i, with strings.Fields' notion of whitespace; start ==
// len(s) when there is none.
func nextField(s string, i int) (start, end int) {
	space := func(i int) (bool, int) {
		if s[i] < utf8.RuneSelf {
			return s[i] == ' ' || ('\t' <= s[i] && s[i] <= '\r'), 1
		}
		r, w := utf8.DecodeRuneInString(s[i:])
		return unicode.IsSpace(r), w
	}
	for i < len(s) {
		sp, w := space(i)
		if !sp {
			break
		}
		i += w
	}
	start = i
	for i < len(s) {
		sp, w := space(i)
		if sp {
			break
		}
		i += w
	}
	return start, i
}

// Prepare analyses phrase: its lowercase content words (stopwords dropped)
// as concept numbers, and its polarity — the sum of its sentiment words'
// orientations, a preceding "not"/"no"/"never" flipping the next one. It
// allocates only to lowercase a phrase that is not already lowercase, or to
// grow p.
func (c *Conceptual) Prepare(phrase string, p *Prepared) {
	p.words = p.words[:0]
	p.text = strings.TrimSpace(phrase)
	low := strings.ToLower(phrase)
	neg, total := false, 0
	for start, end := nextField(low, 0); start < len(low); start, end = nextField(low, end) {
		w := low[start:end]
		info, ok := c.words[w]
		if !ok {
			info.id = -1
		}
		switch {
		case info.negator:
			neg = !neg
		case info.pol != 0:
			if neg {
				total -= int(info.pol)
				neg = false
			} else {
				total += int(info.pol)
			}
		}
		if info.stop {
			continue
		}
		if info.id >= 0 {
			w = ""
		}
		p.words = append(p.words, word{id: info.id, raw: w})
	}
	switch {
	case total > 0:
		p.pol = 1
	case total < 0:
		p.pol = -1
	default:
		p.pol = 0
	}
}

// Score returns the polarity-blind conceptual similarity and whether the two
// phrases' sentiment polarities conflict. The subjective tag index uses the
// conflict signal to let contradicting mentions ("bland food") lower an
// entity's degree of truth for the contradicted tag ("delicious food").
func (c *Conceptual) Score(a, b *Prepared) (float64, bool) {
	if len(a.words) == 0 || len(b.words) == 0 {
		if a.text != "" && strings.EqualFold(a.text, b.text) {
			return 1, false
		}
		return 0, false
	}
	s := (c.directional(a.words, b.words) + c.directional(b.words, a.words)) / 2
	return s, a.pol*b.pol < 0
}

// Phrase scores two phrases in [0, 1].
func (c *Conceptual) Phrase(a, b string) float64 { return phrase(c, a, b) }

// Polarity returns +1, −1 or 0 for a phrase's sentiment orientation.
func (c *Conceptual) Polarity(phrase string) int {
	var p Prepared
	c.Prepare(phrase, &p)
	return int(p.pol)
}

func (c *Conceptual) directional(from, to []word) float64 {
	var total float64
	for _, w := range from {
		best := 0.0
		for _, v := range to {
			s := c.word(w, v)
			if s > best {
				best = s
			}
		}
		total += best
	}
	return total / float64(len(from))
}

// word is 1 for the same word and the Wu–Palmer similarity of two different
// concepts, 2·depth(lca) / (depth(a)+depth(b)); a word outside the taxonomy
// matches only itself.
func (c *Conceptual) word(a, b word) float64 {
	if a.id == b.id {
		if a.id >= 0 || a.raw == b.raw {
			return 1
		}
		return 0
	}
	if a.id < 0 || b.id < 0 {
		return 0
	}
	dl := c.lca[int(a.id)*c.n+int(b.id)]
	if dl == 0 {
		return 0
	}
	return 2 * float64(dl) / float64(int(c.depth[a.id])+int(c.depth[b.id]))
}

// VecProvider supplies a phrase embedding; MiniBERT's SentenceVec satisfies
// it.
type VecProvider interface {
	SentenceVec(tokens []string) mat.Vec
}

// Cosine scores phrases by cosine over provider embeddings — the plain
// measure the paper reports as weaker on short tags (§3.1 footnote 2).
type Cosine struct {
	Provider VecProvider
}

// Prepare embeds the lowercase phrase.
func (c *Cosine) Prepare(phrase string, p *Prepared) {
	p.vec = c.Provider.SentenceVec(strings.Fields(strings.ToLower(phrase)))
}

// Score returns the embedding cosine clamped to [0, 1].
func (c *Cosine) Score(a, b *Prepared) (float64, bool) {
	s := mat.Cosine(a.vec, b.vec)
	if s < 0 {
		return 0, false
	}
	return s, false
}

// Phrase returns the embedding cosine clamped to [0, 1].
func (c *Cosine) Phrase(a, b string) float64 { return phrase(c, a, b) }

// Blend mixes two measures with weight w on the first.
type Blend struct {
	A, B Measure
	W    float64
}

// Prepare prepares the phrase for both blended measures.
func (b *Blend) Prepare(phrase string, p *Prepared) {
	if len(p.sub) != 2 {
		p.sub = make([]Prepared, 2)
	}
	b.A.Prepare(phrase, &p.sub[0])
	b.B.Prepare(phrase, &p.sub[1])
}

// Score returns w·A + (1−w)·B of the blended measures' phrase similarities.
func (b *Blend) Score(x, y *Prepared) (float64, bool) {
	sa := Penalize(b.A.Score(&x.sub[0], &y.sub[0]))
	sb := Penalize(b.B.Score(&x.sub[1], &y.sub[1]))
	return b.W*sa + (1-b.W)*sb, false
}

// Phrase returns w·A + (1−w)·B.
func (b *Blend) Phrase(x, y string) float64 { return phrase(b, x, y) }

// PhraseFunc adapts a plain string similarity to Measure: a prepared phrase
// is the phrase, Score calls the function on the two and never reports a
// conflict.
type PhraseFunc func(a, b string) float64

// Prepare keeps the phrase.
func (f PhraseFunc) Prepare(phrase string, p *Prepared) { p.text = phrase }

// Score calls f on the two phrases.
func (f PhraseFunc) Score(a, b *Prepared) (float64, bool) { return f(a.text, b.text), false }

// Phrase calls f.
func (f PhraseFunc) Phrase(a, b string) float64 { return f(a, b) }
