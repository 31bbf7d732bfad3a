package tagger

import (
	"math/rand"
	"testing"

	"saccs/internal/bert"
	"saccs/internal/nn"
	"saccs/internal/tokenize"
)

// BenchmarkPredict measures one float64 reference decode at production model
// dimensions (bert.DefaultConfig + tagger.DefaultConfig) on a 13-token
// sentence: the `tagger.decode.float64` row of `saccs-bench -only quant` and
// the arithmetic review indexing runs on. Run with -cpuprofile to see the kernel
// breakdown.
func BenchmarkPredict(b *testing.B) {
	m, tokens := benchModel()
	tokens = tokens[:13]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictAt(tokens, nn.Float64)
	}
}

// BenchmarkPredictMixed measures the served decode — nn.Mixed, the
// `tagger.decode.mixed` row of `saccs-bench -only quant` — on a 19-token
// sentence, the mean length of a `query_cold` operation of the repository
// benchmark.
func BenchmarkPredictMixed(b *testing.B) {
	m, tokens := benchModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictAt(tokens, nn.Mixed)
	}
}

// benchModel returns an untrained production-size tagger (seeded weights)
// and a 19-token in-vocabulary sentence, with the pooled arenas and frozen
// weight copies of both precisions already warm.
func benchModel() (*Model, []string) {
	words := []string{"i", "want", "an", "italian", "restaurant", "in", "montreal",
		"with", "delicious", "food", "and", "nice", "staff", "the", "is", "friendly"}
	v := tokenize.NewVocab()
	v.AddAll(words)
	enc := bert.New(rand.New(rand.NewSource(7)), bert.DefaultConfig(), v)
	m := New(enc, DefaultConfig())
	tokens := []string{"i", "want", "an", "italian", "restaurant", "in", "montreal",
		"with", "delicious", "food", "and", "nice", "staff", "the", "food", "is",
		"delicious", "and", "friendly"}
	for i := 0; i < 3; i++ {
		for _, p := range []nn.Precision{nn.Float64, nn.Mixed} {
			m.PredictAt(tokens, p)
		}
	}
	return m, tokens
}
