package tagger

import (
	"math"

	"saccs/internal/mat"
	"saccs/internal/nn"
	"saccs/internal/tokenize"
)

// ReferenceView adapts a Model to always decode on the exact float64
// reference path, whatever precision the model is configured to serve at.
// It satisfies the extraction pipeline's Tagger and Generationer interfaces,
// so an index build can hand its extractor this view and keep the index a
// precision-independent artifact: the same world produces byte-identical
// postings whether the client serves queries at float64 or mixed.
type ReferenceView struct{ M *Model }

// Predict decodes one sentence at float64.
func (v ReferenceView) Predict(tokens []string) []tokenize.Label {
	return v.M.PredictAt(tokens, nn.Float64)
}

// Generation exposes the underlying model's weight generation, so the
// reference view participates in generation-checked caching.
func (v ReferenceView) Generation() uint64 { return v.M.Generation() }

// PathScore returns the float64 model's unnormalized CRF score for a label
// sequence over tokens (truncated to the encoder's max length, like
// Predict). Decode maximizes this, so score(Predict(t)) - score(other) is
// how decisively the model prefers its answer over an alternative — the
// margin the quant-drift oracle compares against quantization noise. Oracle
// and test support, not a serving path.
func (m *Model) PathScore(tokens []string, labels []tokenize.Label) float64 {
	em := m.EmissionsAt(tokens, nn.Float64)
	if len(labels) < em.Rows {
		return math.Inf(-1)
	}
	path := make([]int, em.Rows)
	for i := range path {
		path[i] = int(labels[i])
	}
	return m.crf.PathScore(em, path)
}

// EmissionsAt runs encoder → BiLSTM → projection at the given precision and
// returns the float64 emissions, one row per (truncated) token — the
// observable the quant-drift oracle bounds. Allocating; oracle and test
// support, not a serving path.
func (m *Model) EmissionsAt(tokens []string, p nn.Precision) *mat.Mat {
	a := arenaPool.Get().(*nn.Arena)
	defer arenaPool.Put(a)
	a.Reset()
	return m.emissions(tokens, a, p).Clone()
}
