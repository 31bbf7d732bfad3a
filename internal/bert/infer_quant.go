package bert

import (
	"math"
	"time"

	"saccs/internal/mat"
	"saccs/internal/nn"
)

// The reduced-precision inference forward: the float32/int8 twin of batch.go.
// Activations flow as float32; a block's linear projections — Q/K/V as one
// stacked weight, Wo, FF1, FF2 — run on the int8 GEMM with dynamic
// activation quantization (four quantizations of a token's row per block),
// while the drift-sensitive stages — LayerNorm (moments in float64), softmax,
// GELU, residual adds — stay in the float32 tier. The same one-sequence
// layout as the float64 path. DESIGN.md §14 walks the stages.

// InferQuantTokensArena tokenizes and encodes one sequence in a
// reduced-precision forward pass, returning float32 hidden states, one row
// per token. A sequence longer than MaxLen is truncated, exactly as in the
// float64 paths. Writes no receiver state; safe for concurrent callers, each
// with its own arena.
func (m *Model) InferQuantTokensArena(tokens []string, a *nn.Arena) *mat.Mat32 {
	n := min(len(tokens), m.Cfg.MaxLen)
	if m.o != nil {
		defer m.encHist.ObserveSince(time.Now())
		m.encTokens.Add(int64(n))
	}
	h := a.Mat32Raw(n, m.Cfg.Dim)
	for i := 0; i < n; i++ {
		row := h.Row(i)
		emb := m.TokEmb.Table.W.Row(m.Vocab.ID(tokens[i]))
		pos := m.PosEmb.Table.W.Row(i)
		for j := range row {
			row[j] = float32(emb[j] + pos[j])
		}
	}
	for _, b := range m.Blocks {
		h = b.InferQuantBatch(h, a)
	}
	return h
}

// InferQuantBatch runs the encoder layer over one sequence in reduced
// precision: int8 projections, float32 residuals/GELU, float64-moment layer
// norms.
func (b *Block) InferQuantBatch(xs *mat.Mat32, a *nn.Arena) *mat.Mat32 {
	attnOut := b.Attn.InferQuantBatch(xs, a)
	h1 := a.Mat32Raw(xs.Rows, xs.Cols)
	b.LN1.addNormRows32(h1, xs, attnOut)
	ffPre := b.FF1.InferQuantBatch(h1, a)
	ffAct := a.Mat32Raw(xs.Rows, ffPre.Cols)
	mat.GELURow32(ffAct.Data, ffPre.Data)
	ffnOut := b.FF2.InferQuantBatch(ffAct, a)
	out := a.Mat32Raw(xs.Rows, xs.Cols)
	b.LN2.addNormRows32(out, h1, ffnOut)
	return out
}

// InferQuantBatch runs self-attention over one sequence in reduced
// precision. Q, K and V come out of one int8 GEMM over one quantization of
// xs (the stacked weight of nn.StackedQuant), Wo is a second. In between,
// each head is two small float32 products: scores transposed, Sᵀ = K_h·Q_hᵀ
// (row = key, column = query), with K_h read in place from the qkv rows; one
// column softmax over the whole matrix; then Oᵀ = V_hᵀ·Aᵀ. Two transposes
// ahead of the heads turn the Q and V columns into Qᵀ and Vᵀ, so each head's
// Q_hᵀ and V_hᵀ are contiguous HeadDim×n blocks; each head writes its Oᵀ
// into its rows of one D×n matrix, and a transpose back gives the head
// outputs. Every score still sums its HeadDim products in ascending
// dimension order and every output its n weighted values in ascending key
// order.
func (m *MultiHeadAttention) InferQuantBatch(xs *mat.Mat32, a *nn.Arena) *mat.Mat32 {
	D, hd, n := m.Dim, m.HeadDim, xs.Rows
	qkv := m.qkv.Quantize(m.Wq, m.Wk, m.Wv).Apply(nn.QuantizeActRows(xs, a), a) // rows of [q | k | v]
	headOut := a.Mat32Raw(n, D)
	if n == 0 {
		return m.Wo.InferQuantBatch(headOut, a)
	}
	scale := float32(1 / math.Sqrt(float64(hd)))
	qT, vT, oT := a.Mat32Raw(D, n), a.Mat32Raw(D, n), a.Mat32Raw(D, n)
	mat.Transpose32(qT, qkv, 0)
	mat.Transpose32(vT, qkv, 2*D)
	sT := a.Mat32Raw(n, n)
	stat := a.F32Raw(n)
	for lo := 0; lo < D; lo += hd {
		mat.MatMulF32StrideInto(sT, qkv.Data[D+lo:], 3*D, headRows(qT, lo, hd))
		mat.SoftmaxCols32(sT, scale, stat)
		mat.MatMulF32Into(headRows(oT, lo, hd), headRows(vT, lo, hd), sT)
	}
	mat.Transpose32(headOut, oT, 0)
	return m.Wo.InferQuantBatch(headOut, a)
}

// headRows is rows [lo, lo+hd) of m, one head's block of a transposed
// operand, as a matrix over the same storage.
func headRows(m *mat.Mat32, lo, hd int) *mat.Mat32 {
	return &mat.Mat32{Rows: hd, Cols: m.Cols, Data: m.Data[lo*m.Cols : (lo+hd)*m.Cols]}
}

// addNormRows32 writes LayerNorm(x + r) row by row into y: the residual add
// in float32, then ApplyInto32 in place.
func (ln *LayerNorm) addNormRows32(y, x, r *mat.Mat32) {
	for i := 0; i < x.Rows; i++ {
		yr, xr, rr := y.Row(i), x.Row(i), r.Row(i)
		for j := range yr {
			yr[j] = xr[j] + rr[j]
		}
		ln.ApplyInto32(yr, yr)
	}
}

// ApplyInto32 normalizes the float32 row x into y (which may be x itself:
// every output element is written after the last read of it) with the
// moments computed in float64 — layer norm is the drift amplifier of the stack (it divides by
// a variance that quantization error perturbs), so the mixed mode keeps its
// internals at full precision and rounds once on output. The moment sums
// run in element order (reordering them would move bits); the output pass
// is mat.NormRow32.
func (ln *LayerNorm) ApplyInto32(y, x mat.Vec32) {
	var sum float64
	for _, v := range x {
		sum += float64(v)
	}
	mean := sum / float64(len(x))
	var varSum float64
	for _, v := range x {
		d := float64(v) - mean
		varSum += d * d
	}
	std := math.Sqrt(varSum/float64(len(x)) + ln.Eps)
	mat.NormRow32(y, x, ln.Gain.W.Data, ln.Bias.W.Data, mean, std)
}
