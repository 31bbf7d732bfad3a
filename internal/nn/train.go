package nn

import (
	"sync"

	"saccs/internal/mat"
)

// The training forward and backward (Linear.ForwardSeq/BackwardSeq,
// LSTM.Forward/Backward) run on the same exactness-preserving GEMMs as the
// float64 inference forward: each layer does one mat.MatMulInto per
// sequence instead of a MulVec per token, and folds a whole sequence's
// weight gradient into G with one mat.MatMulAddInto instead of an AddOuter
// per token. Every output element still sees the per-token code's float
// operations in the per-token code's order, so trained weights are
// bit-identical to the per-token reference (train_test.go pins each layer
// against it; the zero-skip argument beside mat.MatMulAddInto covers the
// gradient rows the per-token kernels skipped).
//
// The operands the GEMMs need in another layout — transposed weights,
// sequences packed one token per row, transposed gradient rows — are
// rebuilt every call from scratch borrowed for the call's duration. They
// never go through a layer's packSlot: weights change on every optimizer
// step, so caching them there would only churn the inference forward's
// cache (and a concurrent Predict may be holding it).

// trainScratch lends one training call its temporaries. An arena serves one
// call at a time and goes back, Reset, when the call returns; nothing it
// holds outlives the call.
var trainScratch = sync.Pool{New: func() any { return new(Arena) }}

func getScratch() *Arena {
	a := trainScratch.Get().(*Arena)
	a.Reset()
	return a
}

// transposeInto writes wᵀ into t (w.Cols×w.Rows). Eight source rows go at
// a time, so every store run fills one 64-byte line of t. It copies values
// without reordering any sum.
func transposeInto(t, w *mat.Mat) {
	R, C := w.Rows, w.Cols
	i := 0
	for ; i+8 <= R; i += 8 {
		r0 := w.Data[i*C : (i+1)*C]
		r1 := w.Data[(i+1)*C : (i+2)*C]
		r2 := w.Data[(i+2)*C : (i+3)*C]
		r3 := w.Data[(i+3)*C : (i+4)*C]
		r4 := w.Data[(i+4)*C : (i+5)*C]
		r5 := w.Data[(i+5)*C : (i+6)*C]
		r6 := w.Data[(i+6)*C : (i+7)*C]
		r7 := w.Data[(i+7)*C : (i+8)*C]
		for j := range r0 {
			o := t.Data[j*R+i : j*R+i+8]
			o[0], o[1], o[2], o[3] = r0[j], r1[j], r2[j], r3[j]
			o[4], o[5], o[6], o[7] = r4[j], r5[j], r6[j], r7[j]
		}
	}
	for ; i < R; i++ {
		for j, v := range w.Data[i*C : (i+1)*C] {
			t.Data[j*R+i] = v
		}
	}
}

// transposed returns wᵀ carved from the arena.
func transposed(a *Arena, w *mat.Mat) *mat.Mat {
	t := a.MatRaw(w.Cols, w.Rows)
	transposeInto(t, w)
	return t
}

// packSeq copies a vector sequence into an arena matrix, one token per row.
func packSeq(a *Arena, xs []mat.Vec, dim int) *mat.Mat {
	x := a.MatRaw(len(xs), dim)
	for i, v := range xs {
		copy(x.Row(i), v)
	}
	return x
}

// NewSeq returns n zeroed vectors of width dim backed by one array: a
// training sequence for two allocations instead of n+1.
func NewSeq(n, dim int) []mat.Vec {
	_, seq := newSeqMat(n, dim)
	return seq
}

// newSeqMat is NewSeq that also returns the matrix view of the sequence
// (one token per row), for a GEMM to write into.
func newSeqMat(n, dim int) (mat.Mat, []mat.Vec) {
	m := mat.Mat{Rows: n, Cols: dim, Data: make([]float64, n*dim)}
	return m, rowViews(&m)
}

// rowViews returns m's rows as the []mat.Vec sequence the layers exchange;
// the vectors share m's storage.
func rowViews(m *mat.Mat) []mat.Vec {
	out := make([]mat.Vec, m.Rows)
	for i := range out {
		out[i] = m.Data[i*m.Cols : (i+1)*m.Cols : (i+1)*m.Cols]
	}
	return out
}
