package tagger

import (
	"math/rand"
	"sync"
	"testing"

	"saccs/internal/bert"
	"saccs/internal/nn"
	"saccs/internal/tokenize"
)

var (
	fuzzModelOnce sync.Once
	fuzzModel     *Model
)

// fuzzTagger builds one small untrained tagger (seeded random weights, hard
// IOB constraints installed by New) shared by all fuzz iterations. Its
// encoder is a real MiniBERT — one layer, sixteen dimensions, MaxLen 12 —
// because only a QuantEncoder lets the reduced-precision decode run at all:
// over any other encoder PredictAt falls back to float64.
func fuzzTagger() *Model {
	fuzzModelOnce.Do(func() {
		v := tokenize.NewVocab()
		v.AddAll([]string{"the", "food", "is", "delicious", "and", "staff", "friendly", "terrible", "pizza", "pasta", "."})
		enc := bert.New(rand.New(rand.NewSource(5)), bert.Config{Layers: 1, Heads: 2, Dim: 16, FFDim: 24, MaxLen: 12}, v)
		cfg := DefaultConfig()
		cfg.Hidden = 8
		fuzzModel = New(enc, cfg)
	})
	return fuzzModel
}

// FuzzPredictDecode fuzzes the §4 decode path (encoder → BiLSTM → emission
// projection → CRF Viterbi) through the real tokenizer at both precisions —
// the float64 reference and the served mixed mode. Invariants, each
// per precision: one label per token, labels in range, the decoded sequence
// respects the IOB structural constraints (ValidStart/ValidTransition — the
// CRF's hard penalties must dominate any emission score), and span decoding
// never panics on the result. The seeds cover the extremes: empty, one token,
// more than MaxLen tokens, all out-of-vocabulary.
func FuzzPredictDecode(f *testing.F) {
	f.Add("The food is delicious and the staff is friendly.")
	f.Add("terrible terrible terrible")
	f.Add("")
	f.Add("a")
	f.Add("pizza pasta pizza pasta pizza pasta pizza pasta pizza pasta pizza pasta")
	f.Add("日本語 l'étoile 100% !?")
	f.Add("zzz qqq xxx yyy")
	f.Fuzz(func(t *testing.T, s string) {
		m := fuzzTagger()
		tokens := tokenize.Words(s)
		for _, p := range []nn.Precision{nn.Float64, nn.Mixed} {
			labels := m.PredictAt(tokens, p)
			if len(labels) != len(tokens) {
				t.Fatalf("%v: %d labels for %d tokens (input %q)", p, len(labels), len(tokens), s)
			}
			for i, l := range labels {
				if l < 0 || l >= tokenize.NumLabels {
					t.Fatalf("%v: label %d out of range at %d for %q", p, l, i, s)
				}
			}
			if len(labels) > 0 && !tokenize.ValidStart(labels[0]) {
				t.Fatalf("%v: decode starts with invalid label %v for %q", p, labels[0], s)
			}
			for i := 1; i < len(labels); i++ {
				if !tokenize.ValidTransition(labels[i-1], labels[i]) {
					t.Fatalf("%v: invalid IOB transition %v→%v at %d for %q", p, labels[i-1], labels[i], i, s)
				}
			}
			_ = tokenize.Spans(labels)
		}
	})
}
