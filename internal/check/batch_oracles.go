package check

import (
	"fmt"
	"math/rand"

	"saccs/internal/mat"
)

// Oracle for the inference forward's kernel: the blocked/vectorized GEMM
// promises results bit-identical to the naive triple loop. This check makes
// the promise falsifiable on random inputs, from `make check` and the
// race-enabled test run.

// GemmBlockedOracle compares mat.MatMulInto against a literal
// ascending-k triple loop on adversarial shapes — single rows and columns,
// dimensions off every block and vector-lane multiple, and the production
// layer shapes — requiring bit equality everywhere. The blocked and
// vectorized kernels tile over output rows and columns only, never over k,
// so every output element's summation order is exactly the naive loop's.
func GemmBlockedOracle(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	shapes := [][3]int{
		{1, 1, 1}, {1, 1, 257}, {1, 7, 129}, {129, 7, 1}, {3, 1, 9},
		{2, 256, 8}, {17, 5, 33}, {5, 3, 301}, {6, 31, 300},
		{13, 64, 64}, {13, 64, 128}, {4, 32, 128}, {64, 64, 64},
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, b := mat.NewMat(m, k), mat.NewMat(k, n)
		for i := range a.Data {
			// Mixed magnitudes make floating-point reassociation visible.
			a.Data[i] = (rng.Float64()*2 - 1) * float64(int64(1)<<uint(rng.Intn(20)))
		}
		for i := range b.Data {
			b.Data[i] = (rng.Float64()*2 - 1) * float64(int64(1)<<uint(rng.Intn(20)))
		}
		got := mat.NewMat(m, n)
		mat.MatMulInto(got, a, b)
		for i := 0; i < m; i++ {
			ar := a.Row(i)
			for j := 0; j < n; j++ {
				var s float64
				for kk := 0; kk < k; kk++ {
					s += ar[kk] * b.Data[kk*n+j]
				}
				if got.Data[i*n+j] != s {
					return fmt.Errorf("gemm oracle (seed %d): shape %dx%dx%d element (%d,%d) = %v, naive %v (not bit-equal)",
						seed, m, k, n, i, j, got.Data[i*n+j], s)
				}
			}
		}
	}
	return nil
}
