package check

import (
	"fmt"
	"math/rand"

	"saccs/internal/mat"
)

// Oracle for the float64 forward and backward kernels: the blocked/
// vectorized GEMMs promise results bit-identical to the naive triple loop.
// This check makes the promise falsifiable on random inputs, from `make
// check` and the race-enabled test run.

// GemmBlockedOracle compares mat.MatMulInto and mat.MatMulAddInto against a
// literal ascending-k triple loop on adversarial shapes — single rows and
// columns, k = 1, odd row counts, dimensions off every block and vector-lane
// multiple (the scalar column tail), and the production layer shapes —
// requiring bit equality everywhere. MatMulAddInto starts from a nonzero
// dst, and its reference adds each element's products to that prior value
// in ascending k, as the per-token AddOuter loop it replaces did. The
// blocked and vectorized kernels tile over output rows and columns only,
// never over k, so every output element's summation order is exactly the
// naive loop's.
func GemmBlockedOracle(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	shapes := [][3]int{
		{1, 1, 1}, {1, 1, 257}, {1, 7, 129}, {129, 7, 1}, {3, 1, 9},
		{2, 256, 8}, {17, 5, 33}, {5, 3, 301}, {6, 31, 300},
		{13, 64, 64}, {13, 64, 128}, {4, 32, 128}, {64, 64, 64},
		{5, 1, 32}, {7, 1, 45}, {128, 13, 64}, {5, 13, 64}, {128, 9, 32},
	}
	fill := func(m *mat.Mat) {
		for i := range m.Data {
			// Mixed magnitudes make floating-point reassociation visible.
			m.Data[i] = (rng.Float64()*2 - 1) * float64(int64(1)<<uint(rng.Intn(20)))
		}
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b, prior := mat.NewMat(m, k), mat.NewMat(k, n), mat.NewMat(m, n)
		fill(a)
		fill(b)
		fill(prior)
		got := mat.NewMat(m, n)
		mat.MatMulInto(got, a, b)
		acc := prior.Clone()
		mat.MatMulAddInto(acc, a, b)
		for i := 0; i < m; i++ {
			ar := a.Row(i)
			for j := 0; j < n; j++ {
				s, sa := 0.0, prior.Data[i*n+j]
				for kk := 0; kk < k; kk++ {
					s += ar[kk] * b.Data[kk*n+j]
					sa += ar[kk] * b.Data[kk*n+j]
				}
				if got.Data[i*n+j] != s {
					return fmt.Errorf("gemm oracle (seed %d): shape %dx%dx%d element (%d,%d) = %v, naive %v (not bit-equal)",
						seed, m, k, n, i, j, got.Data[i*n+j], s)
				}
				if acc.Data[i*n+j] != sa {
					return fmt.Errorf("gemm oracle (seed %d): accumulate shape %dx%dx%d element (%d,%d) = %v, naive %v (not bit-equal)",
						seed, m, k, n, i, j, acc.Data[i*n+j], sa)
				}
			}
		}
	}
	return nil
}
