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

// quantDir is one direction of the reduced-precision recurrence: the int8
// input projection of every token (bias fused) and the recurrent weight,
// its hidden states bound for columns [off, off+Hidden) of the output.
// reverse walks the sequence from its last token to its first (the
// backward direction of a BiLSTM) over the same rows, so neither the input
// nor its quantization is ever copied into reversed order.
func (l *LSTM) quantDir(xq QuantRows, a *Arena, off int, reverse bool) mat.LSTMDir32 {
	q := l.Quantize()
	zx := a.Mat32Raw(len(xq.Scales), 4*l.Hidden)
	mat.MulABtInt8Into(zx, xq.Codes, xq.Scales, q.Wx, q.Bias, a.I32Raw(4*l.Hidden))
	return mat.LSTMDir32{Z: zx, WhT: q.WhT, Off: off, Reverse: reverse}
}

// InferQuantBatch runs the bidirectional LSTM over one sequence in reduced
// precision and returns per-token [fwd_t ; bwd_t] concatenations — the
// float32 twin of BiLSTM.Forward. The input rows are quantized once and
// both directions' input projections read the same codes; both
// recurrences then run in one mat.LSTMRecur32 call, interleaved.
func (b *BiLSTM) InferQuantBatch(xs *mat.Mat32, a *Arena) *mat.Mat32 {
	xq := QuantizeActRows(xs, a)
	out := a.Mat32Raw(xs.Rows, b.OutDim())
	mat.LSTMRecur32(out, b.Fwd.quantDir(xq, a, 0, false), b.Bwd.quantDir(xq, a, b.Fwd.Hidden, true))
	return out
}
