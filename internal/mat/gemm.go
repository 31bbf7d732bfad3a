package mat

// Cache-blocked matrix-multiply kernels for the float64 inference forwards
// and the training forward/backward (internal/nn, internal/bert).
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

// ForceScalar routes every kernel with a vector twin through its pure-Go
// path until the returned function is called: the float64 ones (MatMulInto,
// MatMulAddInto, AddRows, Mat.Scale, AdamStep, ExpRow, TanhRow and
// SigmoidRow) and the float32 ones of the mixed decode (MatMulF32Into,
// SoftmaxCols32, ExpRow32, TanhRow32, SigmoidRow32, GELURow32, NormRow32,
// and the int8 GEMM's quantizer and epilogue; its integer accumulator
// kernels keep their own feature flags, and integer sums agree on every
// path anyway). It exists for the tests of the packages above mat, which pin
// each forward, backward and optimizer step on both dispatch paths; not for
// use while kernels run concurrently.
func ForceScalar() (restore func()) {
	saved := hasAVX512
	hasAVX512 = false
	return func() { hasAVX512 = saved }
}

// MatMulInto computes dst = a·b into dst (overwritten), blocked over B
// columns for locality and branch-free in the inner loop. Per output
// element the products accumulate in ascending k order — the same order as
// the naive triple loop — so the result is bit-identical to it.
//
// On amd64 with AVX-512 the inner kernels run vectorized (gemm_amd64.s) with
// unfused multiply/add, lanes spanning output columns; the scalar blocked
// path below is the portable fallback and the vector path's differential
// reference. Both honor the same k-order contract.
func MatMulInto(dst, a, b *Mat) { gemm(dst, a, b, false) }

// MatMulAddInto computes dst += a·b: every output element starts from its
// prior value in dst and adds the products in ascending k order, exactly as
// a sequence of AddOuter(a column k, b row k) calls for k = 0, 1, … would.
// It is MatMulInto's kernel with accumulators that load dst instead of
// starting at zero — how the training backward folds a whole sequence's
// weight gradient into G in one pass (G_W += dYᵀ·X, k = tokens in the order
// the per-token loop visits them).
func MatMulAddInto(dst, a, b *Mat) { gemm(dst, a, b, true) }

// Zero-skip equivalence. MulVecT and AddOuter skip a zero multiplier; the
// GEMMs do not. The two agree bit for bit on finite operands: a skipped
// term is (±0)·x = ±0, and adding ±0 to an accumulator leaves it unchanged
// unless the accumulator is −0 (+0 + −0 = +0). No accumulator is ever −0:
// MatMulInto's start at +0, and the training backward's MatMulAddInto
// accumulates into a gradient that ZeroGrads set to +0 and that only
// additions have touched since. Under round-to-nearest a sum is −0 only
// when both addends are −0, so a chain of additions that starts at +0
// never reaches −0, and skipping a ±0 term or adding it give the same
// bits. (With an infinite or NaN operand 0·x is NaN and the paths differ;
// trained weights and activations are finite.) TestZeroSkipEquivalence
// pins it.

// gemm is MatMulInto (accumulate false: dst is overwritten) and
// MatMulAddInto (accumulate true: dst is added to).
func gemm(dst, a, b *Mat, accumulate bool) {
	checkLen(a.Cols, b.Rows)
	checkLen(dst.Rows, a.Rows)
	checkLen(dst.Cols, b.Cols)
	if gemmAsmInto(dst, a, b, accumulate) {
		return
	}
	if !accumulate {
		dst.Zero()
	}
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
