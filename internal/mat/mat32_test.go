package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func naiveMatMul32(a, b *Mat32) *Mat32 {
	out := NewMat32(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.Data[i*a.Cols+k] * b.Data[k*b.Cols+j]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

var f32Shapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 8, 16},
	{2, 7, 32},
	{3, 16, 33},
	{5, 24, 48},
	{4, 32, 15}, // one masked 16-column block
	{13, 8, 13}, // a 13-token head's scores: K_h·Q_hᵀ
	{8, 13, 13}, // its context: V_hᵀ·Aᵀ
	{3, 5, 17},  // a full block and a one-column masked block
	{2, 9, 31},
	{7, 12, 100},
	{8, 64, 128},
	{1, 32, 128}, // the LSTM step: h·WhT
}

// TestMatMulF32AsmMatchesScalar pins the float32 determinism contract: the
// AVX-512 path and the scalar fallback must agree bit for bit, since the
// mixed-precision decode may take either depending on the machine.
func TestMatMulF32AsmMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, sh := range f32Shapes {
		a := randMat32(rng, sh.m, sh.k)
		b := randMat32(rng, sh.k, sh.n)
		want := naiveMatMul32(a, b)

		got := NewMat32(sh.m, sh.n)
		MatMulF32Into(got, a, b)
		requireBitEqual32(t, "MatMulF32Into", want, got)

		if hasAVX512 {
			hasAVX512 = false
			scalar := NewMat32(sh.m, sh.n)
			MatMulF32Into(scalar, a, b)
			hasAVX512 = true
			requireBitEqual32(t, "f32 asm vs scalar", want, scalar)
		}
	}
}

// TestMatMulF32DecodeShapes runs the mixed decode's float32 GEMM shapes at
// every sentence length 1..64 — a head's scores (M = n, K = HeadDim 8,
// N = n) and context (M = 8, K = n, N = n) — and the LSTM step, on both
// dispatch paths: each must match the naive triple loop bit for bit, and
// the vector path must write nothing past dst.
func TestMatMulF32DecodeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	type shape struct{ m, k, n int }
	shapes := []shape{{1, 32, 128}}
	for n := 1; n <= 64; n++ {
		shapes = append(shapes, shape{n, 8, n}, shape{8, n, n})
	}
	paths := []bool{false}
	if hasAVX512 {
		paths = append(paths, true)
		defer func() { hasAVX512 = true }()
	}
	for _, sh := range shapes {
		a := randMat32(rng, sh.m, sh.k)
		b := randMat32(rng, sh.k, sh.n)
		want := naiveMatMul32(a, b)
		for _, vec := range paths {
			hasAVX512 = vec
			got := &Mat32{Rows: sh.m, Cols: sh.n, Data: rowWithGuard(sh.m * sh.n)}
			MatMulF32Into(got, a, b)
			requireBitEqual32(t, fmt.Sprintf("%dx%d·%dx%d avx512=%v", sh.m, sh.k, sh.k, sh.n, vec), want, got)
			checkGuard32(t, "MatMulF32Into", got.Data)
		}
	}
}

func TestMulABtF32IntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, sh := range f32Shapes {
		a := randMat32(rng, sh.m, sh.k)
		bt := randMat32(rng, sh.n, sh.k)
		want := NewMat32(sh.m, sh.n)
		for i := 0; i < sh.m; i++ {
			for j := 0; j < sh.n; j++ {
				var s float32
				for k := 0; k < sh.k; k++ {
					s += a.Data[i*sh.k+k] * bt.Data[j*sh.k+k]
				}
				want.Data[i*sh.n+j] = s
			}
		}
		got := NewMat32(sh.m, sh.n)
		MulABtF32Into(got, a, bt)
		requireBitEqual32(t, "MulABtF32Into", want, got)
	}
}

// refSoftmax32 is the per-row softmax SoftmaxCols32 replaced (scalar
// exponentials, ascending sum, multiply by the reciprocal): the reference its
// columns must reproduce bit for bit.
func refSoftmax32(dst, src []float32) {
	max := src[0]
	for _, v := range src[1:] {
		if v > max {
			max = v
		}
	}
	var sum float32
	for i, v := range src {
		e := refExp32(v - max)
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

func TestSoftmaxCols32MatchesRowReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const scale = float32(0.35355339059327373) // 1/sqrt(8), the decode's
	for _, sh := range []struct{ rows, cols int }{{1, 1}, {3, 5}, {19, 19}, {48, 48}, {7, 33}} {
		s := randMat32(rng, sh.rows, sh.cols)
		if sh.rows > 2 {
			s.Data[sh.cols+1] = 1000 // max-shift must survive large logits
		}
		want := NewMat32(sh.rows, sh.cols)
		col, out := make([]float32, sh.rows), make([]float32, sh.rows)
		for c := 0; c < sh.cols; c++ {
			for r := range col {
				col[r] = s.Data[r*sh.cols+c] * scale
			}
			refSoftmax32(out, col)
			var sum float64
			for r, v := range out {
				want.Data[r*sh.cols+c] = v
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-5 {
				t.Fatalf("column %d sums to %v, want ≈1", c, sum)
			}
		}
		SoftmaxCols32(s, scale, make([]float32, sh.cols))
		requireBitEqual32(t, "SoftmaxCols32", want, s)
	}
}

func TestAddRows32(t *testing.T) {
	y := NewMat32(2, 3)
	copy(y.Data, []float32{1, 2, 3, 4, 5, 6})
	AddRows32(y, Vec32{10, 20, 30})
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("AddRows32[%d] = %v, want %v", i, y.Data[i], w)
		}
	}
}

// TestTranspose32EveryShape transposes at every row count 1..64 and at the
// decode's widths (HeadDim 8, 24, Dim 64, FFDim 128 and the stacked Q/K/V
// row, 3·Dim = 192), whole and as a column window, on both dispatch paths:
// every bit must land in place (NaN payloads included), and nothing past
// dst may be written.
func TestTranspose32EveryShape(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	paths := []bool{false}
	if hasAVX512 {
		paths = append(paths, true)
		defer func() { hasAVX512 = true }()
	}
	for rows := 1; rows <= 64; rows++ {
		for _, cols := range []int{8, 24, 64, 128, 192} {
			src := NewMat32(rows, cols)
			for i := range src.Data {
				src.Data[i] = math.Float32frombits(rng.Uint32())
			}
			for _, win := range [][2]int{{0, cols}, {cols / 3, cols / 3}, {cols - 5, 5}} {
				col, w := win[0], win[1]
				for _, vec := range paths {
					hasAVX512 = vec
					dst := &Mat32{Rows: w, Cols: rows, Data: rowWithGuard(w * rows)}
					Transpose32(dst, src, col)
					checkGuard32(t, fmt.Sprintf("Transpose32 %dx%d", rows, cols), dst.Data)
					for j := 0; j < w; j++ {
						for i := 0; i < rows; i++ {
							got, want := dst.Data[j*rows+i], src.Data[i*cols+col+j]
							if math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("%dx%d cols [%d,%d) avx512=%v: dst[%d][%d] = %#x, src %#x",
									rows, cols, col, col+w, vec, j, i, math.Float32bits(got), math.Float32bits(want))
							}
						}
					}
				}
			}
		}
	}
}

// TestMatMulF32StrideMatchesPacked: an A operand read in place, a column
// block of a wider matrix, gives the bits of the same block copied out and
// multiplied packed, on both dispatch paths.
func TestMatMulF32StrideMatchesPacked(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	paths := []bool{false}
	if hasAVX512 {
		paths = append(paths, true)
		defer func() { hasAVX512 = true }()
	}
	for _, n := range []int{1, 2, 13, 16, 19, 48} {
		wide := randMat32(rng, n, 192)
		b := randMat32(rng, 8, n)
		for _, col := range []int{64, 120, 184} {
			packed := NewMat32(n, 8)
			for i := 0; i < n; i++ {
				copy(packed.Row(i), wide.Row(i)[col:col+8])
			}
			want := naiveMatMul32(packed, b)
			for _, vec := range paths {
				hasAVX512 = vec
				got := NewMat32(n, n)
				MatMulF32StrideInto(got, wide.Data[col:], 192, b)
				requireBitEqual32(t, fmt.Sprintf("n %d col %d avx512=%v", n, col, vec), want, got)
			}
		}
	}
}
