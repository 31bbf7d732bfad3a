package mat

import (
	"math"
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
		requireBitEqual(t, "matMul", want, matMul(a, b))
	}
}

// naiveMatMulAdd is MatMulAddInto's reference: dst's prior value plus the
// products of each output element, added in ascending k order — the order
// a sequence of AddOuter calls (one per k) accumulates them in.
func naiveMatMulAdd(dst, a, b *Mat) *Mat {
	out := dst.Clone()
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := out.At(i, j)
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// addShapes cover MatMulAddInto's awkward cases: k = 1, odd row counts (the
// single-row microkernel) and n off a multiple of 32 (the scalar tail).
var addShapes = []struct{ m, k, n int }{
	{1, 1, 32}, {3, 1, 33}, {5, 1, 64}, {7, 13, 45}, {128, 9, 64},
	{129, 7, 32}, {5, 17, 9}, {4, 1, 1}, {33, 3, 127}, {3, 0, 40},
}

func TestMatMulAddIntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, sh := range append(addShapes, gemmShapes...) {
		a := randMat(rng, sh.m, sh.k)
		b := randMat(rng, sh.k, sh.n)
		dst := randMat(rng, sh.m, sh.n) // nonzero prior value
		want := naiveMatMulAdd(dst, a, b)
		MatMulAddInto(dst, a, b)
		requireBitEqual(t, "MatMulAddInto", want, dst)
	}
}

// TestMatMulIntoScalarVsVector pins the bit-identity of the AVX-512 path
// against the pure-Go blocked kernel on the same inputs, for both the
// overwriting and the accumulating GEMM. On machines without AVX-512 both
// runs take the scalar path and the test is vacuously green.
func TestMatMulIntoScalarVsVector(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512; scalar path is the only path")
	}
	rng := rand.New(rand.NewSource(45))
	defer func() { hasAVX512 = true }()
	for _, sh := range append(gemmShapes, addShapes...) {
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

		prior := randMat(rng, sh.m, sh.n)
		scalarAdd, vectorAdd := prior.Clone(), prior.Clone()
		hasAVX512 = false
		MatMulAddInto(scalarAdd, a, b)
		hasAVX512 = true
		MatMulAddInto(vectorAdd, a, b)
		requireBitEqual(t, "accumulate scalar-vs-vector", scalarAdd, vectorAdd)
	}
}

// TestZeroSkipEquivalence pins the argument beside MatMulAddInto: the
// zero-skipping training kernels (MulVecT, AddOuter) and the branch-free
// GEMMs agree bit for bit even when whole gradient rows are +0 or −0,
// because no accumulator starting from +0 (or from a +0-seeded gradient) can
// become −0. Both dispatch paths are checked.
func TestZeroSkipEquivalence(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, path := range []string{"vector", "scalar"} {
		t.Run(path, func(t *testing.T) {
			if path == "scalar" {
				defer ForceScalar()()
			}
			rng := rand.New(rand.NewSource(46))
			const rows, out, in = 9, 40, 35
			w := randMat(rng, out, in)
			x := randMat(rng, rows, in)
			dy := randMat(rng, rows, out)
			for j := 0; j < out; j++ {
				dy.Set(2, j, 0)       // an all-zero gradient row
				dy.Set(5, j, negZero) // an all −0 row
				if j%3 == 0 {
					dy.Set(7, j, negZero) // scattered −0 entries
				}
			}
			for j := 0; j < in; j++ {
				x.Set(4, j, negZero) // −0 activations
			}

			// dX = dY·W: MulVecT per row against one GEMM.
			dx := NewMat(rows, in)
			MatMulInto(dx, dy, w)
			for r := 0; r < rows; r++ {
				want := NewVec(in)
				w.MulVecT(want, dy.Row(r))
				for j, v := range want {
					if math.Float64bits(dx.At(r, j)) != math.Float64bits(v) {
						t.Fatalf("dX[%d][%d] = %v, MulVecT %v", r, j, dx.At(r, j), v)
					}
				}
			}

			// G += dYᵀ·X: AddOuter per row against one accumulating GEMM,
			// starting from a zeroed gradient as ZeroGrads leaves it.
			wantG := NewMat(out, in)
			for r := 0; r < rows; r++ {
				wantG.AddOuter(dy.Row(r), x.Row(r))
			}
			gotG := NewMat(out, in)
			MatMulAddInto(gotG, transpose(dy), x)
			for i, v := range wantG.Data {
				if math.Float64bits(gotG.Data[i]) != math.Float64bits(v) {
					t.Fatalf("G element %d = %v, AddOuter %v", i, gotG.Data[i], v)
				}
			}
		})
	}
}

// TestAdamStepScalarVsVector runs 60 Adam steps on the vector kernel and on
// the scalar loop from the same state and requires bit-equal w, m and v at
// every length class: empty, below one vector, exactly one, one plus a
// tail, and a whole model's parameter count.
func TestAdamStepScalarVsVector(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512; scalar path is the only path")
	}
	defer func() { hasAVX512 = true }()
	for _, n := range []int{0, 1, 7, 8, 9, 122000} {
		rng := rand.New(rand.NewSource(int64(n) + 7))
		w0 := make(Vec, n)
		for i := range w0 {
			w0[i] = rng.NormFloat64() * 0.1
		}
		ws, wv := w0.Clone(), w0.Clone()
		ms, mv, vs, vv := NewVec(n), NewVec(n), NewVec(n), NewVec(n)
		g := NewVec(n)
		for step := 1; step <= 60; step++ {
			for i := range g {
				// Gradients spanning magnitudes, with exact zeros.
				g[i] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(30)-20)
				if rng.Intn(10) == 0 {
					g[i] = 0
				}
			}
			c := AdamCoeffs{
				Beta1: 0.9, OneMinusBeta1: 1 - 0.9,
				Beta2: 0.999, OneMinusBeta2: 1 - 0.999,
				BC1: 1 - math.Pow(0.9, float64(step)), BC2: 1 - math.Pow(0.999, float64(step)),
				LR: 1e-3, Eps: 1e-8,
			}
			hasAVX512 = false
			AdamStep(ws, g, ms, vs, &c)
			hasAVX512 = true
			AdamStep(wv, g, mv, vv, &c)
		}
		for name, pair := range map[string][2]Vec{"w": {ws, wv}, "m": {ms, mv}, "v": {vs, vv}} {
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("n=%d: %s[%d] scalar %v, vector %v", n, name, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

// TestScaleScalarVsVector pins Mat.Scale's vector kernel (ClipGrads' rescale)
// against the scalar loop across tails and sub-vector lengths.
func TestScaleScalarVsVector(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512; scalar path is the only path")
	}
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{0, 1, 7, 8, 9, 31, 1000} {
		m := randMat(rng, 1, n)
		want := m.Clone()
		restore := ForceScalar()
		want.Scale(0.3761)
		restore()
		m.Scale(0.3761)
		requireBitEqual(t, "Scale", want, m)
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
