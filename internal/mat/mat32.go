package mat

// Float32 tier for the mixed-precision inference path (internal/nn,
// internal/bert). Training stays float64 end to end; these types carry only
// frozen inference activations and weight copies, halving memory traffic and
// doubling SIMD lanes against the float64 kernels for the layers where int8
// drift is unacceptable (LayerNorm inputs, attention softmax, the LSTM
// recurrence in `mixed` mode).
//
// Determinism contract: every float32 kernel in this tier performs one
// multiply and one add per product, unfused, with k ascending per output
// element — the float32 twin of the float64 exactness contract in gemm.go.
// There is no FMA anywhere (Go does not fuse at the default GOAMD64 level and
// the assembly uses separate VMULPS/VADDPS), so a decode produces the same
// bits whether it runs solo, batched, or on the scalar fallback.

// Vec32 is a float32 vector.
type Vec32 []float32

// Mat32 is a dense row-major float32 matrix.
type Mat32 struct {
	Rows, Cols int
	Data       []float32
}

// NewMat32 returns a zeroed rows×cols float32 matrix.
func NewMat32(rows, cols int) *Mat32 {
	return &Mat32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row i as a slice sharing the matrix storage.
func (m *Mat32) Row(i int) Vec32 {
	return Vec32(m.Data[i*m.Cols : (i+1)*m.Cols])
}

// Zero clears the matrix in place.
func (m *Mat32) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// SoftmaxCols32 scales s by scale and replaces every column with its
// softmax, in place: column c of an attention head's transposed score matrix
// holds one query's scores over the keys. Per column it is the textbook
// sequence — subtract the max, exponentiate, sum in ascending row order,
// multiply by the reciprocal of the sum. The Go path runs it as whole-row
// passes so no pass carries a dependency from one element to the next; the
// AVX-512 path (fastmath32_amd64.s) spans sixteen columns per vector, each
// lane repeating its column's exact sequence. stat is scratch of at least
// s.Cols.
func SoftmaxCols32(s *Mat32, scale float32, stat []float32) {
	n := s.Cols
	if s.Rows == 0 || n == 0 {
		return
	}
	if !softmaxColsAsm(s.Data[:s.Rows*n], s.Rows, n, scale) {
		softmaxColsGo(s, scale, stat[:n])
	}
}

func softmaxColsGo(s *Mat32, scale float32, stat []float32) {
	n := s.Cols
	data := s.Data[:s.Rows*n]
	for i, v := range data[:n] {
		data[i] = v * scale
		stat[i] = data[i]
	}
	for j := 1; j < s.Rows; j++ {
		row := data[j*n : (j+1)*n]
		for i, v := range row {
			v *= scale
			row[i] = v
			if v > stat[i] {
				stat[i] = v
			}
		}
	}
	for j := 0; j < s.Rows; j++ {
		row := data[j*n : (j+1)*n]
		for i, m := range stat {
			row[i] -= m
		}
	}
	expRowGo(data, data)
	clear(stat)
	for j := 0; j < s.Rows; j++ {
		row := data[j*n : (j+1)*n]
		for i, e := range row {
			stat[i] += e
		}
	}
	for i, sum := range stat {
		stat[i] = 1 / sum
	}
	for j := 0; j < s.Rows; j++ {
		row := data[j*n : (j+1)*n]
		for i, inv := range stat {
			row[i] *= inv
		}
	}
}

// MatMulF32Into computes dst = a·b where a is M×K, b is K×N (both row-major
// float32) and dst is M×N, overwritten. Per output element products
// accumulate in ascending k order with an unfused multiply and add each —
// the float32 twin of MatMulInto's contract — so the AVX-512 path
// (quant_amd64.s), which covers any N ≥ 1 with its last column block under a
// k-mask, and this scalar loop (the path for hosts without AVX-512) are
// bit-identical.
func MatMulF32Into(dst, a, b *Mat32) {
	checkLen(a.Cols, b.Rows)
	checkLen(dst.Rows, a.Rows)
	MatMulF32StrideInto(dst, a.Data, a.Cols, b)
}

// MatMulF32StrideInto is MatMulF32Into with A read in place from a wider
// row-major matrix: row i of A (i < dst.Rows) is a[i*lda : i*lda+b.Rows],
// so a column block of a matrix needs no copy. An attention head reads its
// K_h this way from the rows of the stacked Q/K/V projection.
func MatMulF32StrideInto(dst *Mat32, a []float32, lda int, b *Mat32) {
	checkLen(dst.Cols, b.Cols)
	k := b.Rows
	if dst.Rows > 0 && (lda < k || len(a) < (dst.Rows-1)*lda+k) {
		panic("mat: strided A operand out of range")
	}
	if gemm32AsmInto(dst, a, lda, b) {
		return
	}
	dst.Zero()
	for i := 0; i < dst.Rows; i++ {
		a0 := a[i*lda : i*lda+k]
		d0 := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for kk, av := range a0 {
			brow := b.Data[kk*b.Cols : (kk+1)*b.Cols]
			for j, bv := range brow {
				d0[j] += av * bv
			}
		}
	}
}

// Transpose32 writes into dst (w×n) the transpose of the w columns of src
// (n×m) that start at column col: dst[j][i] = src[i][col+j]. With col 0 and
// w = m it is the whole-matrix transpose. The AVX-512 path moves 16×16
// blocks through registers, the edge blocks under masks; either path only
// moves bits.
func Transpose32(dst, src *Mat32, col int) {
	checkLen(dst.Cols, src.Rows)
	if col < 0 || col+dst.Rows > src.Cols {
		panic("mat: Transpose32 columns out of range")
	}
	if dst.Rows == 0 || src.Rows == 0 || transpose32Asm(dst, src, col) {
		return
	}
	for j := 0; j < dst.Rows; j++ {
		row := dst.Row(j)
		for i := range row {
			row[i] = src.Data[i*src.Cols+col+j]
		}
	}
}

// MulABtF32Into computes dst = a·bᵀ where a is M×K and bt is N×K (the
// natural Out×In layout of nn.Linear weights), with a 2×4 register tile:
// eight independent accumulator chains hide FP-add latency while each output
// element still sums its products in ascending k order. It is the float32
// dot-style reference kernel; the projection layer of the quantized decode
// runs on it directly.
func MulABtF32Into(dst, a, bt *Mat32) {
	checkLen(a.Cols, bt.Cols)
	checkLen(dst.Rows, a.Rows)
	checkLen(dst.Cols, bt.Rows)
	n := a.Cols
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.Data[i*n : i*n+n]
		a1 := a.Data[(i+1)*n : (i+1)*n+n]
		d0 := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		d1 := dst.Data[(i+1)*dst.Cols : (i+2)*dst.Cols]
		j := 0
		for ; j+4 <= bt.Rows; j += 4 {
			b0 := bt.Data[j*n : j*n+n]
			b1 := bt.Data[(j+1)*n : (j+1)*n+n]
			b2 := bt.Data[(j+2)*n : (j+2)*n+n]
			b3 := bt.Data[(j+3)*n : (j+3)*n+n]
			var s00, s01, s02, s03 float32
			var s10, s11, s12, s13 float32
			for k := 0; k < n; k++ {
				av0, av1 := a0[k], a1[k]
				bv0, bv1, bv2, bv3 := b0[k], b1[k], b2[k], b3[k]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s02 += av0 * bv2
				s03 += av0 * bv3
				s10 += av1 * bv0
				s11 += av1 * bv1
				s12 += av1 * bv2
				s13 += av1 * bv3
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s00, s01, s02, s03
			d1[j], d1[j+1], d1[j+2], d1[j+3] = s10, s11, s12, s13
		}
		for ; j < bt.Rows; j++ {
			brow := bt.Data[j*n : j*n+n]
			var s0, s1 float32
			for k, bv := range brow {
				s0 += a0[k] * bv
				s1 += a1[k] * bv
			}
			d0[j], d1[j] = s0, s1
		}
	}
	if i < a.Rows {
		a0 := a.Data[i*n : i*n+n]
		d0 := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		j := 0
		for ; j+4 <= bt.Rows; j += 4 {
			b0 := bt.Data[j*n : j*n+n]
			b1 := bt.Data[(j+1)*n : (j+1)*n+n]
			b2 := bt.Data[(j+2)*n : (j+2)*n+n]
			b3 := bt.Data[(j+3)*n : (j+3)*n+n]
			var s0, s1, s2, s3 float32
			for k := 0; k < n; k++ {
				av := a0[k]
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			d0[j], d0[j+1], d0[j+2], d0[j+3] = s0, s1, s2, s3
		}
		for ; j < bt.Rows; j++ {
			brow := bt.Data[j*n : j*n+n]
			var s float32
			for k, bv := range brow {
				s += a0[k] * bv
			}
			d0[j] = s
		}
	}
}

// AddRows32 adds b to every row of y — one addition per element, the float32
// twin of AddRows.
func AddRows32(y *Mat32, b Vec32) {
	checkLen(y.Cols, len(b))
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for j, v := range b {
			row[j] += v
		}
	}
}
