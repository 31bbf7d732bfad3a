package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// Row-kernel benchmarks, each kernel as its pure-Go loop and, on AVX-512
// machines, its vector twin: the recorded pairs behind every asm kernel in
// quant_amd64.s, fastmath32_amd64.s and fastmath64_amd64.s (a twin stays
// only where it beats its Go loop beyond the runs' spread at the widths the
// decode runs; DESIGN §14 records the pairs). The float32
// kernels run at the sentence lengths a head's softmax and GEMMs see
// (decodeWidths: ragged tails below, at and above one and two 16-lane
// blocks) and at the decode's row widths (64 = Dim and 2H, 128 = FFDim and
// 4H); the float64 rows at a softmax row (8 and 24) and one LSTM gate group
// (32 = H); the LSTM recurrence and the transposes at 13, 19 and 48 tokens.
// Run with
//
//	go test -run '^$' -bench 'Row|Softmax|MatMulF32|LSTMRecur32|Transpose32' -cpu 1 ./internal/mat/
var decodeWidths = []int{7, 13, 16, 17, 24, 31, 48}

func benchRowPaths(b *testing.B, width int, fn func()) {
	paths := []string{"go"}
	if hasAVX512 {
		paths = append(paths, "avx512")
		defer func() { hasAVX512 = true }()
	}
	for _, p := range paths {
		hasAVX512 = p == "avx512"
		b.Run(fmt.Sprintf("%d/%s", width, p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
}

func benchRow32(width int) []float32 {
	rng := rand.New(rand.NewSource(int64(width)))
	row := make([]float32, width)
	for i := range row {
		row[i] = float32(rng.NormFloat64() * 2)
	}
	return row
}

func BenchmarkQuantizeRowU8(b *testing.B) {
	for _, w := range append(decodeWidths, 64, 128) {
		src, dst := benchRow32(w), make([]uint8, padK(w))
		benchRowPaths(b, w, func() { QuantizeRowU8(dst, src) })
	}
}

// BenchmarkDequantRow is the epilogue of MulABtInt8Into for one output row.
func BenchmarkDequantRow(b *testing.B) {
	for _, w := range append(decodeWidths, 64, 128) {
		out, scales, bias := make([]float32, w), benchRow32(w), benchRow32(w)
		acc, corr := make([]int32, w), make([]int32, w)
		for i := range acc {
			acc[i], corr[i] = int32(i*977-30000), int32(i*131-4000)
		}
		benchRowPaths(b, w, func() { dequantRow(out, acc, corr, scales, bias, 0.0173) })
	}
}

// benchRow32Kernel times one float32 row kernel at the decode's widths.
func benchRow32Kernel(b *testing.B, row func(dst, src []float32)) {
	for _, w := range append(decodeWidths, 64, 128) {
		src, dst := benchRow32(w), make([]float32, w)
		benchRowPaths(b, w, func() { row(dst, src) })
	}
}

func BenchmarkExpRow32(b *testing.B) { benchRow32Kernel(b, ExpRow32) }

func BenchmarkTanhRow32(b *testing.B) { benchRow32Kernel(b, TanhRow32) }

func BenchmarkSigmoidRow32(b *testing.B) { benchRow32Kernel(b, SigmoidRow32) }

func BenchmarkGELURow32(b *testing.B) { benchRow32Kernel(b, GELURow32) }

// BenchmarkNormRow32 is a layer norm's output pass (normRowCase also sums
// the moments, which both paths share, so it is timed without them).
func BenchmarkNormRow32(b *testing.B) {
	for _, w := range append(decodeWidths, 64) {
		src, dst := benchRow32(w), make([]float32, w)
		gain, bias := benchRow64(w), benchRow64(w)
		benchRowPaths(b, w, func() { NormRow32(dst, src, gain, bias, 0.03, 1.7) })
	}
}

// BenchmarkSoftmaxCols is one attention head's n×n column softmax.
func BenchmarkSoftmaxCols(b *testing.B) {
	for _, n := range decodeWidths {
		src := benchRow32(n * n)
		s, stat := NewMat32(n, n), make([]float32, n)
		benchRowPaths(b, n, func() {
			copy(s.Data, src)
			SoftmaxCols32(s, 0.35355339, stat)
		})
	}
}

// BenchmarkMatMulF32 is a head's two GEMMs at sentence length n: scores
// (n×8 · 8×n) and context (8×n · n×n).
func BenchmarkMatMulF32(b *testing.B) {
	for _, n := range decodeWidths {
		kh, qT, sT := NewMat32(n, 8), NewMat32(8, n), NewMat32(n, n)
		vT, oT := NewMat32(8, n), NewMat32(8, n)
		copy(kh.Data, benchRow32(8*n))
		copy(qT.Data, benchRow32(8*n))
		copy(vT.Data, benchRow32(8*n))
		benchRowPaths(b, n, func() {
			MatMulF32Into(sT, kh, qT)
			MatMulF32Into(oT, vT, sT)
		})
	}
}

func benchRow64(width int) []float64 {
	rng := rand.New(rand.NewSource(int64(width)))
	row := make([]float64, width)
	for i := range row {
		row[i] = rng.NormFloat64() * 2
	}
	return row
}

// benchRow64Kernel times one float64 row kernel: its Go path is the scalar
// math.Exp / math.Tanh / Sigmoid per element.
func benchRow64Kernel(b *testing.B, row func(dst, src []float64)) {
	for _, w := range []int{8, 24, 32, 64, 128} {
		src, dst := benchRow64(w), make([]float64, w)
		benchRowPaths(b, w, func() { row(dst, src) })
	}
}

func BenchmarkExpRow64(b *testing.B) { benchRow64Kernel(b, ExpRow) }

func BenchmarkTanhRow64(b *testing.B) { benchRow64Kernel(b, TanhRow) }

func BenchmarkSigmoidRow64(b *testing.B) { benchRow64Kernel(b, SigmoidRow) }

// BenchmarkMulABtInt8 is one int8 projection of a 15-token sentence
// (15×64 · 64×64ᵀ): per row the int8 kernel writes the accumulators that
// the dequantization epilogue reads straight back.
func BenchmarkMulABtInt8(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	w := QuantizeRows(randMat(rng, 64, 64))
	a := randMat32(rng, 15, 64)
	aq, scales := quantizeActivations(a)
	dst, acc, bias := NewMat32(15, 64), make([]int32, 64), benchRow32(64)
	benchRowPaths(b, 64, func() { MulABtInt8Into(dst, aq, scales, w, bias, acc) })
}

// BenchmarkLSTMRecur32 is a BiLSTM's recurrence over n tokens at the
// served H = 32: both directions, one call.
func BenchmarkLSTMRecur32(b *testing.B) {
	for _, n := range []int{13, 19, 48} {
		c := newLSTMCase(rand.New(rand.NewSource(int64(n))), n, 32)
		out := NewMat32(n, 64)
		fwd, bwd := LSTMDir32{Z: c.zf, WhT: c.whf}, LSTMDir32{Z: c.zb, WhT: c.whb, Off: 32, Reverse: true}
		benchRowPaths(b, n, func() { LSTMRecur32(out, fwd, bwd) })
	}
}

// BenchmarkTranspose32 is one attention block's three transposes at n
// tokens: the Q and V columns of the n×192 stacked projection out, and the
// 64×n head outputs back.
func BenchmarkTranspose32(b *testing.B) {
	for _, n := range []int{13, 19, 48} {
		qkv := &Mat32{Rows: n, Cols: 192, Data: benchRow32(n * 192)}
		qT, vT, oT, out := NewMat32(64, n), NewMat32(64, n), NewMat32(64, n), NewMat32(n, 64)
		benchRowPaths(b, n, func() {
			Transpose32(qT, qkv, 0)
			Transpose32(vT, qkv, 128)
			Transpose32(out, oT, 0)
		})
	}
}
