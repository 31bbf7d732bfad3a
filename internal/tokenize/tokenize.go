// Package tokenize supplies the text preprocessing substrate for SACCS:
// word tokenization, sentence splitting, a vocabulary with the special tokens
// the MiniBERT encoder expects, and the IOB label codec of the tagging task
// (§4 of the paper, Ramshaw & Marcus chunk encoding).
package tokenize

import (
	"strings"
	"unicode"
)

// Words splits s into lowercase word tokens. Punctuation characters become
// their own tokens so sentence structure survives for the parser; apostrophes
// inside words are kept (e.g. "kazuki's").
func Words(s string) []string {
	var toks []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			toks = append(toks, b.String())
			b.Reset()
		}
	}
	runes := []rune(s)
	for i, r := range runes {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'' && b.Len() > 0 && i+1 < len(runes) && unicode.IsLetter(runes[i+1]):
			b.WriteRune(r)
		case unicode.IsSpace(r):
			flush()
		default:
			// Cased symbols (e.g. circled letters, category So) land here
			// because they are not unicode letters, yet still have lowercase
			// mappings — fold them so every emitted rune is a lowercase fixed
			// point. For ordinary punctuation ToLower is the identity.
			flush()
			toks = append(toks, string(unicode.ToLower(r)))
		}
	}
	flush()
	return toks
}

// Sentences splits text into sentences on ., !, ? boundaries. The terminator
// stays attached to its sentence. Whitespace-only segments are dropped.
func Sentences(text string) []string {
	var out []string
	var b strings.Builder
	for _, r := range text {
		b.WriteRune(r)
		if r == '.' || r == '!' || r == '?' {
			if s := strings.TrimSpace(b.String()); s != "" {
				out = append(out, s)
			}
			b.Reset()
		}
	}
	if s := strings.TrimSpace(b.String()); s != "" {
		out = append(out, s)
	}
	return out
}

// Special vocabulary tokens used by the MiniBERT encoder and the datasets.
const (
	PadToken  = "[PAD]"
	UnkToken  = "[UNK]"
	ClsToken  = "[CLS]"
	SepToken  = "[SEP]"
	MaskToken = "[MASK]"
)

// Vocab maps tokens to dense integer ids. The zero id is always [PAD].
type Vocab struct {
	ids    map[string]int
	tokens []string
}

// NewVocab returns a vocabulary pre-seeded with the special tokens
// ([PAD]=0, [UNK]=1, [CLS]=2, [SEP]=3, [MASK]=4).
func NewVocab() *Vocab {
	v := &Vocab{ids: make(map[string]int)}
	for _, t := range []string{PadToken, UnkToken, ClsToken, SepToken, MaskToken} {
		v.Add(t)
	}
	return v
}

// Add inserts token and returns its id; existing tokens keep their id.
func (v *Vocab) Add(token string) int {
	if id, ok := v.ids[token]; ok {
		return id
	}
	id := len(v.tokens)
	v.ids[token] = id
	v.tokens = append(v.tokens, token)
	return id
}

// ID returns token's id, or the [UNK] id when unknown.
func (v *Vocab) ID(token string) int {
	if id, ok := v.ids[token]; ok {
		return id
	}
	return v.ids[UnkToken]
}

// Len returns the vocabulary size.
func (v *Vocab) Len() int { return len(v.tokens) }

// Encode maps tokens to ids, using [UNK] for out-of-vocabulary tokens.
func (v *Vocab) Encode(tokens []string) []int {
	ids := make([]int, len(tokens))
	for i, t := range tokens {
		ids[i] = v.ID(t)
	}
	return ids
}

// AddAll inserts every token and returns v for chaining.
func (v *Vocab) AddAll(tokens []string) *Vocab {
	for _, t := range tokens {
		v.Add(t)
	}
	return v
}
