package nn

import (
	"saccs/internal/mat"
)

// Reduced-precision inference: the float32/int8 twins of the kernels in
// infer_batch.go. The layout contract is identical — one sequence, a token
// per row — but activations flow as float32 and the big projections run on
// the int8 GEMM. Determinism contract: transcendentals go through the
// pure-float32 polynomial kernels in mat (fastmath32.go) whose arithmetic is
// IEEE-exact in Go, and the mat float32/int8 kernels are bit-identical across
// dispatch paths — so a quantized decode produces the same bits on any
// machine.

// QuantRows is a batch of activation rows quantized once — offset-binary
// uint8 codes, mat.PadK(cols) per row, with per-row scales — for every int8
// GEMM that consumes the same input (a block's stacked Q/K/V, both
// directions of the BiLSTM).
type QuantRows struct {
	Codes  []uint8
	Scales []float32 // one per row
}

// QuantizeActRows is the dynamic activation-quantization step in front of
// the int8 GEMMs, arena-backed.
func QuantizeActRows(x *mat.Mat32, a *Arena) QuantRows {
	kp := mat.PadK(x.Cols)
	q := QuantRows{Codes: a.U8Raw(x.Rows * kp), Scales: a.F32Raw(x.Rows)}
	for i := 0; i < x.Rows; i++ {
		q.Scales[i] = mat.QuantizeRowU8(q.Codes[i*kp:(i+1)*kp], x.Row(i))
	}
	return q
}

// Apply runs the frozen layer over quantized rows: one int8 GEMM with the
// bias fused into dequantization. Arena-backed and allocation-free once warm.
func (q *LinearQuant) Apply(x QuantRows, a *Arena) *mat.Mat32 {
	y := a.Mat32Raw(len(x.Scales), q.W.Rows)
	mat.MulABtInt8Into(y, x.Codes, x.Scales, q.W, q.Bias, a.I32Raw(q.W.Rows))
	return y
}

// InferQuantBatch applies the layer to every row of x on the int8 kernel.
func (l *Linear) InferQuantBatch(x *mat.Mat32, a *Arena) *mat.Mat32 {
	return l.Quantize().Apply(QuantizeActRows(x, a), a)
}

// InferF32Batch applies the layer to every row of x in float32 — the
// drift-sensitive projection path of the mixed mode.
func (l *Linear) InferF32Batch(x *mat.Mat32, a *Arena) *mat.Mat32 {
	f := l.Float32()
	y := a.Mat32Raw(x.Rows, l.Out)
	mat.MulABtF32Into(y, x, f.W)
	mat.AddRows32(y, f.Bias)
	return y
}

// inferQuant runs the LSTM over one already quantized sequence in reduced
// precision and writes each token's hidden state into columns
// [off, off+Hidden) of its row of out. It mirrors Forward's structure: the
// input projection of every token is one int8 GEMM (bias fused), then each
// time step runs the recurrent projection as a one-row float32 GEMM against
// the pre-transposed WhT. reverse walks the sequence from its last token to
// its first (the backward direction of a BiLSTM) over the same rows, so
// neither the input nor its quantization is ever copied into reversed order.
// Gate math is float32, a 4H row at a time, per-element order identical to
// the float64 path's.
func (l *LSTM) inferQuant(out *mat.Mat32, off int, xq QuantRows, a *Arena, reverse bool) {
	H := l.Hidden
	n := len(xq.Scales)
	q := l.Quantize()
	zx := a.Mat32Raw(n, 4*H)
	mat.MulABtInt8Into(zx, xq.Codes, xq.Scales, q.Wx, q.Bias, a.I32Raw(4*H)) // bias fused here

	h := a.Mat32(1, H)
	c := a.Mat32(1, H)
	zh := a.Mat32Raw(1, 4*H)
	z, g := a.F32Raw(4*H), a.F32Raw(4*H)
	ig, fg, gg, og := g[:H], g[H:2*H], g[2*H:3*H], g[3*H:]
	cr, hr, zhr := c.Row(0), h.Row(0), zh.Row(0)
	for t := 0; t < n; t++ {
		row := t
		if reverse {
			row = n - 1 - t
		}
		mat.MatMulF32Into(zh, h, q.WhT)
		zxr := zx.Row(row)
		for j := range z {
			z[j] = zxr[j] + zhr[j]
		}
		mat.SigmoidRow32(g[:2*H], z[:2*H]) // input and forget gates
		mat.TanhRow32(gg, z[2*H:3*H])
		mat.SigmoidRow32(og, z[3*H:]) // output gate
		for j := range cr {
			cr[j] = fg[j]*cr[j] + ig[j]*gg[j]
		}
		mat.TanhRow32(hr, cr)
		for j := range hr {
			hr[j] *= og[j]
		}
		copy(out.Row(row)[off:off+H], hr)
	}
}

// InferQuantBatch runs the bidirectional LSTM over one sequence in reduced
// precision and returns per-token [fwd_t ; bwd_t] concatenations — the
// float32 twin of BiLSTM.Forward. The input rows are quantized once and
// both directions' input projections read the same codes.
func (b *BiLSTM) InferQuantBatch(xs *mat.Mat32, a *Arena) *mat.Mat32 {
	xq := QuantizeActRows(xs, a)
	out := a.Mat32Raw(xs.Rows, b.OutDim())
	b.Fwd.inferQuant(out, 0, xq, a, false)
	b.Bwd.inferQuant(out, b.Fwd.Hidden, xq, a, true)
	return out
}
