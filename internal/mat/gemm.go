package mat

// Cache-blocked matrix-multiply kernel for the inference forwards
// (internal/nn, internal/bert).
//
// Exactness contract: for every output element, products are accumulated in
// ascending k order — the same order MulVec and the naive triple loop use —
// so the kernel is bit-identical to the reference implementations. Blocking
// and tiling only regroup *output elements* (rows of A, columns of B): the k
// dimension is never split, because float addition is not associative and
// splitting it would change per-element results. The differential oracle
// oracle/gemm-blocked in internal/check pins this.
//
// Why it beats a MulVec per row: MulVec's single-accumulator dot loop is
// serialized on floating-point add latency (~4 cycles per element); walking
// a row of B per k step updates a whole panel of independent output elements
// instead, so the same multiply-adds retire at throughput rather than
// latency (and vectorize, see gemm_amd64.go). It costs nothing in exactness
// because each output element still sums its own products in k order.

const (
	// gemmColBlock bounds the panel of B columns (rows of Bᵀ) processed per
	// pass so the panel stays cache-resident while the A rows stream by.
	gemmColBlock = 256
)

// ForceScalar routes MatMulInto and AddRows through their pure-Go paths until
// the returned function is called. It exists for the tests of the packages
// above mat, which pin each float64 inference forward against its training
// twin on both dispatch paths; not for use while kernels run concurrently.
func ForceScalar() (restore func()) {
	saved := hasAVX512
	hasAVX512 = false
	return func() { hasAVX512 = saved }
}

// MatMulInto computes dst = a·b into dst (overwritten), blocked over B
// columns for locality and branch-free in the inner loop. Per output
// element the products accumulate in ascending k order — the same order as
// the naive triple loop — so the result is bit-identical to MatMul's.
//
// On amd64 with AVX-512 the inner kernels run vectorized (gemm_amd64.s) with
// unfused multiply/add, lanes spanning output columns; the scalar blocked
// path below is the portable fallback and the vector path's differential
// reference. Both honor the same k-order contract.
func MatMulInto(dst, a, b *Mat) {
	checkLen(a.Cols, b.Rows)
	checkLen(dst.Rows, a.Rows)
	checkLen(dst.Cols, b.Cols)
	if gemmAsmInto(dst, a, b) {
		return
	}
	dst.Zero()
	for jb := 0; jb < b.Cols; jb += gemmColBlock {
		je := jb + gemmColBlock
		if je > b.Cols {
			je = b.Cols
		}
		i := 0
		for ; i+2 <= a.Rows; i += 2 {
			a0 := a.Data[i*a.Cols : (i+1)*a.Cols]
			a1 := a.Data[(i+1)*a.Cols : (i+2)*a.Cols]
			d0 := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			d1 := dst.Data[(i+1)*dst.Cols : (i+2)*dst.Cols]
			for k := 0; k < a.Cols; k++ {
				av0, av1 := a0[k], a1[k]
				brow := b.Data[k*b.Cols : (k+1)*b.Cols]
				for j := jb; j < je; j++ {
					bv := brow[j]
					d0[j] += av0 * bv
					d1[j] += av1 * bv
				}
			}
		}
		if i < a.Rows {
			a0 := a.Data[i*a.Cols : (i+1)*a.Cols]
			d0 := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for k := 0; k < a.Cols; k++ {
				av := a0[k]
				brow := b.Data[k*b.Cols : (k+1)*b.Cols]
				for j := jb; j < je; j++ {
					d0[j] += av * brow[j]
				}
			}
		}
	}
}

// AddRows adds b element-wise to every row of y — the bias pass of a batched
// linear layer. Each element receives exactly one addition, so the
// vectorized path is bit-identical to calling Vec.Add per row.
func AddRows(y *Mat, b Vec) {
	for i := 0; i < y.Rows; i++ {
		addVecFast(y.Row(i), b)
	}
}
