package mat

import (
	"fmt"
	"math/rand"
	"testing"
)

// Row-kernel benchmarks at the decode's widths (64 = Dim and 2H, 128 = FFDim
// and 4H), each as its pure-Go loop and, on AVX-512 machines, its vector
// twin: the recorded pairs behind every asm row kernel in quant_amd64.s and
// fastmath64_amd64.s (a twin stays only at ≥ 2× its Go loop). The float64
// rows add the widths of a softmax row (8 and 24: a sentence's tokens) and
// of one LSTM gate group (32 = H). Run with
//
//	go test -run '^$' -bench 'Row|Softmax' -cpu 1 ./internal/mat/
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
	for _, w := range []int{64, 128} {
		src, dst := benchRow32(w), make([]uint8, padK(w))
		benchRowPaths(b, w, func() { QuantizeRowU8(dst, src) })
	}
}

// BenchmarkDequantRow is the epilogue of MulABtInt8Into for one output row.
func BenchmarkDequantRow(b *testing.B) {
	for _, w := range []int{64, 128} {
		out, scales, bias := make([]float32, w), benchRow32(w), benchRow32(w)
		acc, corr := make([]int32, w), make([]int32, w)
		for i := range acc {
			acc[i], corr[i] = int32(i*977-30000), int32(i*131-4000)
		}
		benchRowPaths(b, w, func() { dequantRow(out, acc, corr, scales, bias, 0.0173) })
	}
}

// BenchmarkSoftmaxRow is one softmax row's exponentials (SoftmaxCols32 runs
// a head's whole score matrix through a single ExpRow32).
func BenchmarkSoftmaxRow(b *testing.B) {
	for _, w := range []int{64, 128} {
		src, dst := benchRow32(w), make([]float32, w)
		benchRowPaths(b, w, func() { ExpRow32(dst, src) })
	}
}

// BenchmarkLSTMGateRow is the transcendental work of one LSTM step over a
// gate row of the given width (4H): sigmoids on three quarters, tanh on one.
func BenchmarkLSTMGateRow(b *testing.B) {
	for _, w := range []int{64, 128} {
		src, dst := benchRow32(w), make([]float32, w)
		h := w / 4
		benchRowPaths(b, w, func() {
			SigmoidRow32(dst[:2*h], src[:2*h])
			TanhRow32(dst[2*h:3*h], src[2*h:3*h])
			SigmoidRow32(dst[3*h:], src[3*h:])
		})
	}
}

func BenchmarkTanhRow(b *testing.B) {
	for _, w := range []int{64, 128} {
		src, dst := benchRow32(w), make([]float32, w)
		benchRowPaths(b, w, func() { TanhRow32(dst, src) })
	}
}

// BenchmarkSoftmaxCols is one attention head's 19×19 column softmax.
func BenchmarkSoftmaxCols(b *testing.B) {
	src := benchRow32(19 * 19)
	s, stat := NewMat32(19, 19), make([]float32, 19)
	benchRowPaths(b, 19, func() {
		copy(s.Data, src)
		SoftmaxCols32(s, 0.35355339, stat)
	})
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
