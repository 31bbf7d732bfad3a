package bert

import (
	"math/rand"
	"testing"

	"saccs/internal/nn"
	"saccs/internal/tokenize"
)

// TestInferBatchMatchesSerial pins the identity that makes solo a batch of
// one: every sequence's hidden states out of a shared packed forward are
// bit-identical to the training Encode of that sequence alone, whatever its
// neighbours in the batch are.
func TestInferBatchMatchesSerial(t *testing.T) {
	words := []string{"the", "pasta", "was", "great", "but", "service",
		"slow", "and", "rude", "staff", "lovely", "room"}
	v := tokenize.NewVocab()
	v.AddAll(words)
	rng := rand.New(rand.NewSource(3))
	m := New(rng, Config{Layers: 2, Heads: 4, Dim: 32, FFDim: 48, MaxLen: 6}, v)

	mkSeq := func(n int) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = words[rng.Intn(len(words))]
		}
		return s
	}
	batches := [][][]string{
		{mkSeq(3)},
		{mkSeq(3), mkSeq(5)},
		{mkSeq(1), mkSeq(0), mkSeq(4), mkSeq(2)},
		{mkSeq(9), mkSeq(6)}, // beyond MaxLen: truncation must match Encode's
		{mkSeq(2), mkSeq(2), mkSeq(2), mkSeq(2), mkSeq(2), mkSeq(2), mkSeq(2), mkSeq(2)},
	}
	onBothKernelPaths(t, func(t *testing.T) {
		for bi, seqs := range batches {
			var a nn.Arena
			h, starts, lens := m.InferBatchTokensArena(seqs, &a)
			for s, seq := range seqs {
				want := m.EncodeTokens(seq)
				if len(want) != lens[s] {
					t.Fatalf("batch %d seq %d: %d rows, Encode %d", bi, s, lens[s], len(want))
				}
				for tt, wv := range want {
					gv := h.Row(starts[s] + tt)
					for i, w := range wv {
						if gv[i] != w {
							t.Fatalf("batch %d seq %d token %d elem %d = %v, want %v (bit-exact)",
								bi, s, tt, i, gv[i], w)
						}
					}
				}
			}
		}
	})
}
