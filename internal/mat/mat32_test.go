package mat

import (
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
	{4, 32, 15}, // below the 16-col asm floor: scalar path
	{7, 12, 100},
	{8, 64, 128},
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
