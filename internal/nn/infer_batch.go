package nn

import (
	"math"
	"sync/atomic"

	"saccs/internal/mat"
)

// The float64 inference forward: one token sequence is one matrix (a row per
// token) and each layer runs as a GEMM over all its rows instead of a MulVec
// per token. The payoff is kernel efficiency — mat.MatMulInto's
// blocked/vectorized path against a MulVec per token (DESIGN.md §9) — not
// different arithmetic: every kernel here performs its training twin's float
// operations in the same per-element order, so its results are bit-identical
// to Forward (infer_batch_test.go pins each layer).
//
// Weights are packed (transposed Out×In → In×Out) so the GEMM can stream B
// rows in k-major order. Packing copies values without reordering any sum —
// exactness is untouched — and the packed copy is cached on the layer, keyed
// by the parameter's mutation version (Param.NoteMutated): a retrain bumps
// the version after its last weight write, so a stale or torn pack can never
// outlive the training step that obsoleted it. Decodes that overlap a
// retrain may pack mid-step weights, the same semantics Forward has when
// reading mutating weights — their results are discarded by the generation
// check upstream (internal/extcache keying).

// packSlot caches one transposed weight matrix against a Param version.
type packSlot struct {
	p atomic.Pointer[packedWeight]
}

type packedWeight struct {
	ver uint64
	m   *mat.Mat
}

// packedTransposed returns pᵀ (In×Out), rebuilding the cached copy when the
// parameter's version moved. The version is read before the copy: if a
// concurrent mutation tears the copy, the mutator's trailing NoteMutated
// leaves the cache keyed to a version that no longer matches, so the next
// call rebuilds from settled weights.
func packedTransposed(slot *packSlot, p *Param) *mat.Mat {
	v := p.Version()
	if c := slot.p.Load(); c != nil && c.ver == v {
		return c.m
	}
	t := mat.NewMat(p.W.Cols, p.W.Rows)
	transposeInto(t, p.W)
	slot.p.Store(&packedWeight{ver: v, m: t})
	return t
}

// InferBatch computes y = x·Wᵀ + b row-wise into an arena-backed y
// (rows×Out), where x is rows×In. Row i of y is bit-identical to
// Forward(x_i): the GEMM accumulates each output element's products in
// ascending k order, exactly like MulVec, and the bias adds after the full
// dot, exactly like Forward.
func (l *Linear) InferBatch(x *mat.Mat, a *Arena) *mat.Mat {
	y := a.MatRaw(x.Rows, l.Out)
	mat.MatMulInto(y, x, packedTransposed(&l.pack, l.Weight))
	mat.AddRows(y, l.Bias.W.Row(0))
	return y
}

// InferBatch runs the LSTM over one sequence, a token per row of xs, and
// returns the hidden states in the same layout. The input projection Wx·x of
// every token is one GEMM; each time step then runs the recurrent projection
// Wh·h as a one-row GEMM. The recursion — gate order, (Wx·x + Wh·h) + b
// association, c/h updates — is Forward's exactly, so row t is bit-identical
// to Forward's hs[t].
func (l *LSTM) InferBatch(xs *mat.Mat, a *Arena) *mat.Mat {
	H := l.Hidden
	out := a.MatRaw(xs.Rows, H)
	if xs.Rows == 0 {
		return out
	}

	wxp := packedTransposed(&l.packWx, l.Wx) // In×4H
	whp := packedTransposed(&l.packWh, l.Wh) // H×4H
	zx := a.MatRaw(xs.Rows, 4*H)
	mat.MatMulInto(zx, xs, wxp)
	bias := l.B.W.Row(0)

	h := a.Mat(1, H) // current hidden state (zero-initialized)
	c := a.Vec(H)    // current cell state
	zh := a.MatRaw(1, 4*H)
	hr, zhr := h.Row(0), zh.Row(0)
	for t := 0; t < xs.Rows; t++ {
		mat.MatMulInto(zh, h, whp)
		zxr := zx.Row(t)
		for j := 0; j < H; j++ {
			ig := Sigmoid((zxr[j] + zhr[j]) + bias[j])
			fg := Sigmoid((zxr[H+j] + zhr[H+j]) + bias[H+j])
			gg := math.Tanh((zxr[2*H+j] + zhr[2*H+j]) + bias[2*H+j])
			og := Sigmoid((zxr[3*H+j] + zhr[3*H+j]) + bias[3*H+j])
			c[j] = fg*c[j] + ig*gg
			hr[j] = og * math.Tanh(c[j])
		}
		copy(out.Row(t), hr)
	}
	return out
}

// InferBatch runs the bidirectional LSTM over one sequence (see
// LSTM.InferBatch for the layout) and returns per-token [fwd_t ; bwd_t]
// concatenations, row t matching Forward's out[t] bit for bit.
func (b *BiLSTM) InferBatch(xs *mat.Mat, a *Arena) *mat.Mat {
	n := xs.Rows
	fh := b.Fwd.InferBatch(xs, a)
	rev := a.MatRaw(n, xs.Cols)
	for i := 0; i < n; i++ {
		copy(rev.Row(n-1-i), xs.Row(i))
	}
	bhRev := b.Bwd.InferBatch(rev, a)
	H := b.Fwd.Hidden
	out := a.MatRaw(n, b.OutDim())
	for t := 0; t < n; t++ {
		v := out.Row(t)
		copy(v[:H], fh.Row(t))
		copy(v[H:], bhRev.Row(n-1-t))
	}
	return out
}
