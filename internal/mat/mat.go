// Package mat provides the dense vector and matrix arithmetic used by the
// neural substrates (internal/nn, internal/bert). It is a deliberately small
// BLAS-lite: row-major float64 matrices, the handful of kernels the models
// need, and numerically stable reductions (softmax, logsumexp).
package mat

import (
	"fmt"
	"math"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to 0.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Add adds w into v element-wise. Panics if lengths differ.
func (v Vec) Add(w Vec) {
	checkLen(len(v), len(w))
	for i, x := range w {
		v[i] += x
	}
}

// Sub subtracts w from v element-wise.
func (v Vec) Sub(w Vec) {
	checkLen(len(v), len(w))
	for i, x := range w {
		v[i] -= x
	}
}

// AddScaled adds s*w into v.
func (v Vec) AddScaled(s float64, w Vec) {
	checkLen(len(v), len(w))
	for i, x := range w {
		v[i] += s * x
	}
}

// Scale multiplies every element of v by s.
func (v Vec) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Dot returns the inner product of v and w.
func (v Vec) Dot(w Vec) float64 {
	checkLen(len(v), len(w))
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vec) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// MaxIdx returns the index of the largest element (first on ties).
// It returns -1 for an empty vector.
func (v Vec) MaxIdx() int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// Max returns the largest element of v. Panics on empty input.
func (v Vec) Max() float64 {
	if len(v) == 0 {
		panic("mat: Max of empty vector")
	}
	return v[v.MaxIdx()]
}

// Sum returns the sum of the elements of v.
func (v Vec) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vec) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Cosine returns the cosine similarity between v and w, and 0 when either
// vector is all zeros.
func Cosine(v, w Vec) float64 {
	nv, nw := v.Norm(), w.Norm()
	if nv == 0 || nw == 0 {
		return 0
	}
	return v.Dot(w) / (nv * nw)
}

// Softmax overwrites dst with the softmax of src using the max-shift trick.
// dst and src may alias.
func Softmax(dst, src Vec) {
	checkLen(len(dst), len(src))
	if len(src) == 0 {
		return
	}
	m := src.Max()
	for i, x := range src {
		dst[i] = x - m
	}
	ExpRow(dst, dst)
	var sum float64
	for _, e := range dst {
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}

// LogSumExp returns log(sum(exp(v))) computed stably. It stays a scalar
// loop: its callers are the CRF's forward-backward rows, L = 5 labels wide,
// under one 8-lane block of ExpRow.
func LogSumExp(v Vec) float64 {
	if len(v) == 0 {
		return math.Inf(-1)
	}
	m := v.Max()
	if math.IsInf(m, -1) {
		return m
	}
	var sum float64
	for _, x := range v {
		sum += math.Exp(x - m)
	}
	return m + math.Log(sum)
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zero matrix with the given shape.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must all share a length.
func FromRows(rows [][]float64) *Mat {
	if len(rows) == 0 {
		return NewMat(0, 0)
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		checkLen(m.Cols, len(r))
		copy(m.Row(i), r)
	}
	return m
}

// At returns the element at (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a Vec sharing m's storage.
func (m *Mat) Row(i int) Vec { return Vec(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets every element of m to 0.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Add adds o into m element-wise.
func (m *Mat) Add(o *Mat) {
	m.checkSameShape(o)
	for i, x := range o.Data {
		m.Data[i] += x
	}
}

// AddScaled adds s*o into m.
func (m *Mat) AddScaled(s float64, o *Mat) {
	m.checkSameShape(o)
	for i, x := range o.Data {
		m.Data[i] += s * x
	}
}

// Scale multiplies every element of m by s. It is element-wise — one
// multiply per element — so its vector path is bit-identical to the loop.
func (m *Mat) Scale(s float64) { scaleFast(m.Data, s) }

func scaleGo(v []float64, s float64) {
	for i := range v {
		v[i] *= s
	}
}

// MulVec computes dst = m · v where v has length m.Cols and dst length m.Rows.
func (m *Mat) MulVec(dst, v Vec) {
	checkLen(len(v), m.Cols)
	checkLen(len(dst), m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, x := range row {
			s += x * v[j]
		}
		dst[i] = s
	}
}

// MulVecT computes dst = mᵀ · v where v has length m.Rows and dst length
// m.Cols. dst is overwritten.
//
// It is the one-vector backward (Linear.Backward: the per-token reference
// the batched training backward is pinned against, and single-example
// training such as the pairing classifier's). It skips zero entries of v,
// where the GEMMs in gemm.go are branch-free; the results are bit-identical
// all the same (see the zero-skip argument beside MatMulAddInto).
func (m *Mat) MulVecT(dst, v Vec) {
	checkLen(len(v), m.Rows)
	checkLen(len(dst), m.Cols)
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		vi := v[i]
		if vi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, x := range row {
			dst[j] += vi * x
		}
	}
}

// AddOuter accumulates the outer product u·vᵀ into m (rank-1 update),
// where u has length m.Rows and v length m.Cols. Like MulVecT it skips zero
// entries of u and serves the one-vector backward; MatMulAddInto is the
// same accumulation over a whole sequence at once, bit for bit.
func (m *Mat) AddOuter(u, v Vec) {
	checkLen(len(u), m.Rows)
	checkLen(len(v), m.Cols)
	for i, ui := range u {
		if ui == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, vj := range v {
			row[j] += ui * vj
		}
	}
}

// MatMul returns a·b. Panics if a.Cols != b.Rows.
//
// The kernel is branch-free: it used to skip k whenever a[i][k] == 0, a
// "sparsity" shortcut that never fires on trained dense weights but puts a
// data-dependent branch in the hottest loop of every dense multiply. The
// skip survives only in the one-vector MulVecT and AddOuter.
func MatMul(a, b *Mat) *Mat {
	checkLen(a.Cols, b.Rows)
	out := NewMat(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// Frob returns the Frobenius norm of m.
func (m *Mat) Frob() float64 { return Vec(m.Data).Norm() }

func (m *Mat) checkSameShape(o *Mat) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

func checkLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("mat: length mismatch %d vs %d", a, b))
	}
}
