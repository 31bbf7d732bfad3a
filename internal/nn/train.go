package nn

import (
	"saccs/internal/mat"
)

// Every float64 layer has one forward over a sequence, a token per row of a
// *mat.Mat, that takes an optional *Tape. Inference passes nil: nothing is
// recorded and the layer writes no state, so any number of goroutines may
// run it, each with its own Arena. Training passes a tape, and the layer
// pushes what its Backward reads — its input and whatever its own gradient
// needs (LSTM gates and cell states, attention rows, layer-norm statistics,
// dropout masks). Backward pops them in reverse, so a model's backward calls
// its layers' Backwards in the reverse of the forward order. Recording never
// changes an operation: the taped forward is the inference forward, float
// for float, and the per-token references of train_test.go and
// infer_batch_test.go pin both against the per-token code (MulVec per
// projection, AddOuter per gradient term).
//
// The forward runs on the exactness-preserving GEMMs (DESIGN.md §9): each
// projection is one mat.MatMulInto per sequence, and each backward folds a
// whole sequence's weight gradient into G with one mat.MatMulAddInto whose k
// dimension visits the tokens in the per-token loop's order. Weights go to
// the GEMM transposed. Inference reads the copy cached on the layer against
// the weight version (packedTransposed); a taped forward transposes into its
// own arena on each call instead, because the weights change on every
// optimizer step — caching them on the layer would only churn the inference
// forward's cache, which a concurrent Predict may be holding.

// Tape records a training forward for its backward pass. Its Arena holds the
// recorded matrices, the forward's outputs and the backward's temporaries;
// Reset recycles all of it for the next step, so a warm tape allocates
// nothing. A tape serves one goroutine at a time.
type Tape struct {
	Arena
	recs []*mat.Mat
}

// Reset empties the tape and recycles its arena.
func (t *Tape) Reset() {
	t.Arena.Reset()
	t.recs = t.recs[:0]
}

// Push records ms, in order, for the backward pass. A nil entry is allowed
// (dropout records one when it masks nothing).
func (t *Tape) Push(ms ...*mat.Mat) { t.recs = append(t.recs, ms...) }

// Len returns the number of records not yet popped.
func (t *Tape) Len() int { return len(t.recs) }

// Pop returns the most recently pushed record and removes it. It panics if
// none is left: a backward with no taped forward before it, or a second
// backward of one forward.
func (t *Tape) Pop() *mat.Mat {
	if len(t.recs) == 0 {
		panic("nn: Tape.Pop on an empty tape: each taped forward allows one backward")
	}
	m := t.recs[len(t.recs)-1]
	t.recs = t.recs[:len(t.recs)-1]
	return m
}

// weightT returns pᵀ for a forward: the copy cached in slot for inference
// (t nil), a fresh transpose carved from a for a taped forward.
func weightT(slot *packSlot, p *Param, a *Arena, t *Tape) *mat.Mat {
	if t == nil {
		return packedTransposed(slot, p)
	}
	return transposed(a, p.W)
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
