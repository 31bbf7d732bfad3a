package tagger

import (
	"math"
	"time"

	"saccs/internal/mat"
	"saccs/internal/nn"
	"saccs/internal/tokenize"
)

// QuantEncoder is an encoder with a reduced-precision batched forward pass;
// *bert.Model satisfies it. When the tagger's encoder implements it and the
// precision mode is quantized, Predict/PredictBatch route the whole pipeline
// — encoder, BiLSTM, projection — through the float32/int8 kernels, with
// only the CRF Viterbi staying float64. Encoders without it silently decode
// at float64, so a quantized Precision is always safe to request.
type QuantEncoder interface {
	InferQuantBatchTokensArena(seqs [][]string, a *nn.Arena, p nn.Precision) (*mat.Mat32, []int, []int)
}

// Precision returns the model's configured decode precision.
func (m *Model) Precision() nn.Precision { return m.cfg.Precision }

// SetPrecision changes the decode precision for subsequent Predict calls.
// Not safe to call concurrently with in-flight decodes; use PredictAt to mix
// precisions under concurrency instead.
func (m *Model) SetPrecision(p nn.Precision) { m.cfg.Precision = p }

// predictQuant decodes packed sequences on the reduced-precision kernels:
// the quantized encoder batch pass, the quantized BiLSTM, the projection
// (float32 in Mixed, int8 in Int8), then a float64 Viterbi per sequence over
// the float32 emissions. A solo decode is the one-sequence batch — the
// kernels are sequence-local, so solo and batched results are structurally
// bit-identical.
func (m *Model) predictQuant(qe QuantEncoder, seqs [][]string, p nn.Precision) [][]tokenize.Label {
	if m.Obs != nil {
		defer m.Obs.Histogram("tagger.predict").ObserveSince(time.Now())
	}
	a := arenaPool.Get().(*nn.Arena)
	a.Reset()
	emissions, starts, lens := m.quantEmissions(qe, seqs, a, p)
	outs := make([][]tokenize.Label, len(seqs))
	for s, seq := range seqs {
		out := make([]tokenize.Label, len(seq))
		if n := lens[s]; n > 0 {
			em := a.Seq(n)
			for t := 0; t < n; t++ {
				row := emissions.Row(starts[s] + t)
				v := a.Vec(len(row))
				for j, e := range row {
					v[j] = float64(e)
				}
				em[t] = v
			}
			path := m.crf.DecodeArena(em, a)
			for i, l := range path {
				out[i] = tokenize.Label(l)
			}
		}
		outs[s] = out
	}
	arenaPool.Put(a)
	return outs
}

// quantEmissions is the reduced-precision forward up to the CRF: quantized
// encoder, quantized BiLSTM, then the projection — float32 in Mixed, int8 in
// Int8 — as packed float32 emission rows addressed by starts/lens.
func (m *Model) quantEmissions(qe QuantEncoder, seqs [][]string, a *nn.Arena, p nn.Precision) (*mat.Mat32, []int, []int) {
	embeds, starts, lens := qe.InferQuantBatchTokensArena(seqs, a, p)
	hs := m.bilstm.InferQuantBatch(embeds, starts, lens, a, p)
	if p == nn.Int8 {
		return m.proj.InferQuantBatch(hs, a), starts, lens
	}
	return m.proj.InferF32Batch(hs, a), starts, lens
}

// ReferenceView adapts a Model to always decode on the exact float64
// reference path, whatever precision the model is configured to serve at.
// It satisfies the extraction pipeline's Tagger, BatchTagger, and
// Generationer interfaces, so an index build can hand its extractor this
// view and keep the index a precision-independent artifact: the same world
// produces byte-identical postings whether the client serves queries at
// float64, mixed, or int8.
type ReferenceView struct{ M *Model }

// Predict decodes one sentence at float64.
func (v ReferenceView) Predict(tokens []string) []tokenize.Label {
	return v.M.PredictAt(tokens, nn.Float64)
}

// PredictBatch decodes a shared forward at float64.
func (v ReferenceView) PredictBatch(seqs [][]string) [][]tokenize.Label {
	return v.M.PredictBatchAt(seqs, nn.Float64)
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
	if len(labels) < len(em) {
		return math.Inf(-1)
	}
	path := make([]int, len(em))
	for i := range path {
		path[i] = int(labels[i])
	}
	return m.crf.PathScore(em, path)
}

// EmissionsAt runs encoder → BiLSTM → projection at the given precision and
// returns one emission vector per (truncated) token as float64 — the
// observable the quant-drift oracle bounds. Allocating; oracle and test
// support, not a serving path.
func (m *Model) EmissionsAt(tokens []string, p nn.Precision) []mat.Vec {
	a := arenaPool.Get().(*nn.Arena)
	defer arenaPool.Put(a)
	a.Reset()
	if p.Quantized() {
		if qe, ok := m.enc.(QuantEncoder); ok {
			em, starts, lens := m.quantEmissions(qe, [][]string{tokens}, a, p)
			out := make([]mat.Vec, lens[0])
			for t := range out {
				row := em.Row(starts[0] + t)
				v := mat.NewVec(len(row))
				for j, e := range row {
					v[j] = float64(e)
				}
				out[t] = v
			}
			return out
		}
	}
	var embeds []mat.Vec
	if ae, ok := m.enc.(ArenaEncoder); ok {
		embeds = ae.InferTokensArena(tokens, a)
	} else {
		embeds = infer(m.enc, tokens)
	}
	if len(embeds) == 0 {
		return nil
	}
	hs := m.bilstm.InferSeq(embeds, a)
	em := m.proj.InferSeq(hs, a)
	out := make([]mat.Vec, len(em))
	for t, e := range em {
		out[t] = e.Clone()
	}
	return out
}
