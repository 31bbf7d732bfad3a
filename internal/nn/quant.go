package nn

import (
	"sync/atomic"

	"saccs/internal/mat"
)

// Quantize-at-load: layers freeze reduced-precision copies of their weights
// the first time a quantized decode touches them, and cache the copy against
// the parameters' mutation versions — the same invalidation protocol as the
// transposed-pack cache in infer_batch.go. A retrain's optimizer step bumps
// every touched Param's version (Param.NoteMutated), so the next quantized
// decode after a Generation() bump rebuilds from the settled weights; a torn
// copy taken mid-step is keyed to a version that no longer matches and can
// never be served again. The frozen copies are immutable and shared by any
// number of concurrent decodes.

// quantSlot caches one frozen reduced-precision weight copy against a
// combined parameter-version key.
type quantSlot[T any] struct {
	p atomic.Pointer[quantEntry[T]]
}

type quantEntry[T any] struct {
	key [3]uint64
	v   *T
}

// cached returns the slot's value for key, or rebuilds it with build. The
// key's versions must be read before build reads the weights (the callers
// below do), preserving the torn-copy safety argument of packedTransposed.
func (s *quantSlot[T]) cached(key [3]uint64, build func() *T) *T {
	if c := s.p.Load(); c != nil && c.key == key {
		return c.v
	}
	v := build()
	s.p.Store(&quantEntry[T]{key: key, v: v})
	return v
}

// LinearQuant is a linear layer's frozen int8 inference form: per-output-row
// symmetric weight codes plus a float32 bias the kernel fuses into its
// dequantization loop.
type LinearQuant struct {
	W    *mat.Int8Weights // Out×In codes
	Bias []float32        // len Out
}

// LinearF32 is a linear layer's frozen float32 inference form, for the
// drift-sensitive projections the mixed mode keeps out of int8.
type LinearF32 struct {
	W    *mat.Mat32 // Out×In
	Bias []float32  // len Out
}

func biasF32(p *Param) []float32 {
	src := p.W.Row(0)
	b := make([]float32, len(src))
	for i, v := range src {
		b[i] = float32(v)
	}
	return b
}

// Quantize returns the layer's frozen int8 form, rebuilding it only when the
// weights' versions moved (retrain).
func (l *Linear) Quantize() *LinearQuant {
	key := [3]uint64{l.Weight.Version(), l.Bias.Version(), 0}
	return l.quant.cached(key, func() *LinearQuant {
		return &LinearQuant{W: mat.QuantizeRows(l.Weight.W), Bias: biasF32(l.Bias)}
	})
}

// StackedQuant caches the frozen int8 form of up to three linear layers that
// read the same input, stacked along the output dimension — attention's
// Wq/Wk/Wv as one 3·Dim×Dim weight, so a block quantizes its input once and
// runs one GEMM for all three. Weight rows are quantized per output row, so
// row r of the stack carries exactly the codes, scale and bias its own
// layer's Quantize would give it. Never copy a StackedQuant by value.
type StackedQuant struct{ slot quantSlot[LinearQuant] }

// Quantize returns the stacked frozen form of ls (same In, at most three),
// rebuilding it only when one of their parameters' versions moved.
func (s *StackedQuant) Quantize(ls ...*Linear) *LinearQuant {
	var key [3]uint64
	rows := 0
	for i, l := range ls {
		// Versions only ever grow, so the sum moves whenever either does.
		key[i] = l.Weight.Version() + l.Bias.Version()
		rows += l.Out
	}
	return s.slot.cached(key, func() *LinearQuant {
		w := mat.NewMat(rows, ls[0].In)
		q := &LinearQuant{Bias: make([]float32, 0, rows)}
		at := 0
		for _, l := range ls {
			at += copy(w.Data[at:], l.Weight.W.Data)
			q.Bias = append(q.Bias, biasF32(l.Bias)...)
		}
		q.W = mat.QuantizeRows(w)
		return q
	})
}

// Float32 returns the layer's frozen float32 form, version-cached like
// Quantize.
func (l *Linear) Float32() *LinearF32 {
	key := [3]uint64{l.Weight.Version(), l.Bias.Version(), 0}
	return l.f32.cached(key, func() *LinearF32 {
		w := l.Weight.W
		m := mat.NewMat32(w.Rows, w.Cols)
		for i, v := range w.Data {
			m.Data[i] = float32(v)
		}
		return &LinearF32{W: m, Bias: biasF32(l.Bias)}
	})
}

// LSTMQuant is an LSTM's frozen reduced-precision inference form. The input
// projection Wx is int8 (it is the big In-wide GEMM); the recurrent
// projection stays float32 — WhT is Wh pre-transposed to H×4H so the
// per-timestep recurrence is one row-major MatMulF32Into. Bias is the float32
// gate bias, fused into the Wx GEMM's dequantization.
type LSTMQuant struct {
	Wx   *mat.Int8Weights // 4H×In
	WhT  *mat.Mat32       // H×4H
	Bias []float32        // len 4H
}

// Quantize returns the LSTM's frozen form, version-cached.
func (l *LSTM) Quantize() *LSTMQuant {
	key := [3]uint64{l.Wx.Version(), l.Wh.Version(), l.B.Version()}
	return l.quant.cached(key, func() *LSTMQuant {
		wh := l.Wh.W // 4H×H
		t := mat.NewMat32(wh.Cols, wh.Rows)
		for i := 0; i < wh.Rows; i++ {
			for j := 0; j < wh.Cols; j++ {
				t.Data[j*wh.Rows+i] = float32(wh.Data[i*wh.Cols+j])
			}
		}
		return &LSTMQuant{Wx: mat.QuantizeRows(l.Wx.W), WhT: t, Bias: biasF32(l.B)}
	})
}
