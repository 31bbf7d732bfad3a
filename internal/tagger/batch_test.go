package tagger

import (
	"fmt"
	"math/rand"
	"testing"

	"saccs/internal/race"
)

// TestPredictBatchMatchesPredict pins batched decoding against the serial
// path label-for-label across adversarial batch shapes. Because the batch
// kernels are bit-exact (internal/nn and internal/bert differential tests),
// label equality here is the end-to-end corollary the extraction batcher
// depends on.
func TestPredictBatchMatchesPredict(t *testing.T) {
	m, _ := benchModel()
	words := []string{"i", "want", "an", "italian", "restaurant", "in", "montreal",
		"with", "delicious", "food", "and", "nice", "staff", "the", "is", "friendly"}
	rng := rand.New(rand.NewSource(9))
	mkSeq := func(n int) []string {
		s := make([]string, n)
		for i := range s {
			s[i] = words[rng.Intn(len(words))]
		}
		return s
	}
	batches := [][][]string{
		{},
		{mkSeq(5)},
		{mkSeq(3), mkSeq(7)},
		{mkSeq(0), mkSeq(4), mkSeq(1)},
		{mkSeq(13), mkSeq(2), mkSeq(60), mkSeq(8)}, // one beyond MaxLen=48
		{mkSeq(6), mkSeq(6), mkSeq(6), mkSeq(6), mkSeq(6), mkSeq(6), mkSeq(6), mkSeq(6)},
	}
	for bi, seqs := range batches {
		got := m.PredictBatch(seqs)
		if len(got) != len(seqs) {
			t.Fatalf("batch %d: %d results for %d sequences", bi, len(got), len(seqs))
		}
		for s, seq := range seqs {
			want := m.Predict(seq)
			if fmt.Sprint(want) != fmt.Sprint(got[s]) {
				t.Fatalf("batch %d seq %d:\n got %v\nwant %v", bi, s, got[s], want)
			}
		}
	}
}

// TestPredictBatchAllocs pins the allocation budget of a warm batched
// decode: the outs slice plus one label slice per sequence. Everything else
// — packed activations, GEMM scratch, packed weights, Viterbi state — must
// come from the pooled arena.
func TestPredictBatchAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are inflated by the race detector's own bookkeeping")
	}
	m, tokens := benchModel()
	seqs := [][]string{tokens, tokens[:7], tokens[2:11], tokens[1:6]}
	for i := 0; i < 3; i++ {
		m.PredictBatch(seqs) // warm the pooled arena
	}
	avg := testing.AllocsPerRun(20, func() { m.PredictBatch(seqs) })
	// 1 outs slice + 4 label slices, plus a little slack for the runtime.
	if avg > 8 {
		t.Fatalf("warm PredictBatch allocates %.1f times per call, want <= 8", avg)
	}
}

// BenchmarkPredictBatch4 measures the per-sequence cost of a batch-of-4
// decode at production dimensions — the number behind the ISSUE's "cold
// tagger.decode ≥3x faster at batch ≥4" acceptance line, to be compared
// against BenchmarkPredict.
func BenchmarkPredictBatch4(b *testing.B) {
	m, tokens := benchModel()
	seqs := [][]string{tokens, tokens, tokens, tokens}
	for i := 0; i < 3; i++ {
		m.PredictBatch(seqs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(seqs)
	}
}

// BenchmarkPredictBatch8 is the batch-8 point of the same curve: deeper
// batches amortize the per-batch fixed costs (arena, packs, recurrent GEMM
// call overhead) further than batch 4.
func BenchmarkPredictBatch8(b *testing.B) {
	m, tokens := benchModel()
	seqs := [][]string{tokens, tokens, tokens, tokens, tokens, tokens, tokens, tokens}
	for i := 0; i < 3; i++ {
		m.PredictBatch(seqs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(seqs)
	}
}
