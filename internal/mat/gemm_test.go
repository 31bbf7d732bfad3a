package mat

import (
	"math/rand"
	"testing"
)

// naiveMatMul is the reference triple loop: for each output element the
// products accumulate in ascending k order. Every blocked kernel must agree
// with it bit for bit.
func naiveMatMul(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMat(rng *rand.Rand, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		// Mixed magnitudes and signs so reordered summation would actually
		// diverge in the low bits if a kernel broke the k-order contract.
		m.Data[i] = (rng.Float64() - 0.5) * float64(int(1)<<(rng.Intn(20)))
		if rng.Intn(16) == 0 {
			m.Data[i] = 0 // exact zeros: the branch the old kernel special-cased
		}
	}
	return m
}

func transpose(m *Mat) *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

func requireBitEqual(t *testing.T, name string, want, got *Mat) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if got.Data[i] != w {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", name, i, got.Data[i], w)
		}
	}
}

// gemmShapes are adversarial: degenerate rows/cols, 1xN, Nx1, shapes not a
// multiple of any tile or block size, and one shape wider than gemmColBlock.
var gemmShapes = []struct{ m, k, n int }{
	{0, 0, 0}, {0, 5, 3}, {3, 0, 5}, {1, 1, 1},
	{1, 64, 1}, {1, 7, 129}, {129, 7, 1},
	{2, 3, 4}, {3, 3, 3}, {5, 17, 9}, {7, 64, 5},
	{13, 64, 128}, {48, 64, 64}, {6, 31, 300},
}

func TestMatMulIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, sh := range gemmShapes {
		a := randMat(rng, sh.m, sh.k)
		b := randMat(rng, sh.k, sh.n)
		want := naiveMatMul(a, b)
		got := NewMat(sh.m, sh.n)
		// Pre-poison dst: MatMulInto must fully overwrite it.
		for i := range got.Data {
			got.Data[i] = 1e300
		}
		MatMulInto(got, a, b)
		requireBitEqual(t, "MatMulInto", want, got)
		requireBitEqual(t, "MatMul", want, MatMul(a, b))
	}
}

// TestMatMulIntoScalarVsVector pins the bit-identity of the AVX-512 path
// against the pure-Go blocked kernel on the same inputs. On machines without
// AVX-512 both runs take the scalar path and the test is vacuously green.
func TestMatMulIntoScalarVsVector(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512; scalar path is the only path")
	}
	rng := rand.New(rand.NewSource(45))
	defer func() { hasAVX512 = true }()
	for _, sh := range gemmShapes {
		a := randMat(rng, sh.m, sh.k)
		b := randMat(rng, sh.k, sh.n)
		hasAVX512 = false
		scalar := NewMat(sh.m, sh.n)
		MatMulInto(scalar, a, b)
		hasAVX512 = true
		vector := NewMat(sh.m, sh.n)
		for i := range vector.Data {
			vector.Data[i] = 1e300 // vector path must fully overwrite too
		}
		MatMulInto(vector, a, b)
		requireBitEqual(t, "scalar-vs-vector", scalar, vector)
	}
}

func BenchmarkMulVecDense(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := randMat(rng, 64, 64)
	x := randMat(rng, 13, 64) // one 13-token sequence, row-at-a-time
	y := NewVec(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < x.Rows; r++ {
			w.MulVec(y, x.Row(r))
		}
	}
}

// TestAddRowsScalarVsVector pins the AVX-512 element-wise add against the
// scalar Vec.Add across awkward widths (tails, sub-vector-width rows).
func TestAddRowsScalarVsVector(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512; scalar path is the only path")
	}
	rng := rand.New(rand.NewSource(17))
	for _, shape := range [][2]int{{1, 1}, {3, 7}, {4, 8}, {5, 9}, {2, 31}, {6, 64}, {3, 129}} {
		rows, cols := shape[0], shape[1]
		y := randMat(rng, rows, cols)
		b := randMat(rng, 1, cols).Row(0)
		want := NewMat(rows, cols)
		copy(want.Data, y.Data)
		restore := ForceScalar()
		AddRows(want, b)
		restore()
		if !hasAVX512 {
			t.Fatal("ForceScalar's restore did not re-enable the vector kernels")
		}
		AddRows(y, b)
		requireBitEqual(t, "AddRows", y, want)
	}
}
