// Package postag is a lexicon- and suffix-rule part-of-speech tagger, the
// substrate under the shallow constituency parser (internal/parse) that the
// §5.1 tree-distance pairing heuristic needs. It plays the role NLTK played
// for the paper: good enough to segment clauses and phrases, with the same
// failure mode on typos.
package postag

import "strings"

// Tag is a coarse part-of-speech class.
type Tag uint8

// The coarse tag set.
const (
	other Tag = iota
	Det
	Noun
	Verb
	Adj
	Adv
	Conj
	Prep
	Pron
	Punct
	Num
)

// String returns the tag's display name.
func (t Tag) String() string {
	switch t {
	case Det:
		return "DET"
	case Noun:
		return "NOUN"
	case Verb:
		return "VERB"
	case Adj:
		return "ADJ"
	case Adv:
		return "ADV"
	case Conj:
		return "CONJ"
	case Prep:
		return "PREP"
	case Pron:
		return "PRON"
	case Punct:
		return "PUNCT"
	case Num:
		return "NUM"
	}
	return "OTHER"
}

var closedClass = map[string]Tag{
	"the": Det, "a": Det, "an": Det, "this": Det, "that": Det, "these": Det,
	"i": Pron, "we": Pron, "they": Pron, "it": Pron, "she": Pron, "he": Pron,
	"my": Det, "our": Det, "her": Det, "his": Det, "its": Det, "their": Det,
	"and": Conj, "but": Conj, "or": Conj, "while": Conj, "yet": Conj,
	"in": Prep, "on": Prep, "at": Prep, "with": Prep, "for": Prep,
	"of": Prep, "to": Prep, "from": Prep, "near": Prep, "by": Prep,
	"is": Verb, "was": Verb, "are": Verb, "were": Verb, "be": Verb,
	"been": Verb, "am": Verb, "have": Verb, "has": Verb, "had": Verb,
	"serve": Verb, "offer": Verb, "came": Verb, "come": Verb, "will": Verb,
	"would": Verb, "expect": Verb, "imagine": Verb, "joined": Verb,
	"booked": Verb, "took": Verb, "opened": Verb, "return": Verb,
	"not": Adv, "very": Adv, "really": Adv, "quite": Adv, "absolutely": Adv,
	"truly": Adv, "incredibly": Adv, "here": Adv, "again": Adv, "too": Adv,
	"definitely": Adv, "late": Adv, "back": Adv, "twice": Adv,
}

// lyAdjectives lists common adjectives the "-ly → adverb" suffix rule would
// otherwise mis-tag.
var lyAdjectives = map[string]bool{
	"friendly": true, "lovely": true, "lively": true, "ugly": true,
	"silly": true, "early": true, "costly": true, "deadly": true,
	"likely": true, "lonely": true, "orderly": true, "homely": true,
}

// Lexicon lets callers add domain knowledge: word → tag overrides applied
// before suffix rules (the parser feeds it aspect nouns and opinion
// adjectives from the active domain lexicon).
type Lexicon map[string]Tag

// TagWord tags a single token. Domain lexicon wins over the closed class,
// which wins over suffix rules, which fall back on Noun — the standard
// unknown-word default.
func TagWord(lex Lexicon, word string) Tag {
	w := strings.ToLower(word)
	if lex != nil {
		if t, ok := lex[w]; ok {
			return t
		}
	}
	if t, ok := closedClass[w]; ok {
		return t
	}
	if isPunct(w) {
		return Punct
	}
	if isNum(w) {
		return Num
	}
	switch {
	case lyAdjectives[w]:
		return Adj
	case strings.HasSuffix(w, "ly"):
		return Adv
	case strings.HasSuffix(w, "ous"), strings.HasSuffix(w, "ful"),
		strings.HasSuffix(w, "ive"), strings.HasSuffix(w, "able"),
		strings.HasSuffix(w, "ible"), strings.HasSuffix(w, "al"),
		strings.HasSuffix(w, "ic"), strings.HasSuffix(w, "less"),
		strings.HasSuffix(w, "ish"), strings.HasSuffix(w, "ant"),
		strings.HasSuffix(w, "ent"):
		return Adj
	case strings.HasSuffix(w, "ing"), strings.HasSuffix(w, "ed"),
		strings.HasSuffix(w, "ize"), strings.HasSuffix(w, "ise"):
		return Verb
	}
	return Noun
}

// TagSeq tags each token in the sentence.
func TagSeq(lex Lexicon, tokens []string) []Tag {
	out := make([]Tag, len(tokens))
	for i, tok := range tokens {
		out[i] = TagWord(lex, tok)
	}
	return out
}

func isPunct(w string) bool {
	if w == "" {
		return false
	}
	for _, r := range w {
		switch r {
		case '.', ',', '!', '?', ';', ':', '(', ')', '\'', '"', '-':
		default:
			return false
		}
	}
	return true
}

func isNum(w string) bool {
	if w == "" {
		return false
	}
	for _, r := range w {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}
