package mat

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

const eps = 1e-12

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestVecAddSub(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	v.Add(w)
	if v[0] != 5 || v[1] != 7 || v[2] != 9 {
		t.Fatalf("Add: got %v", v)
	}
	v.AddScaled(-1, w)
	if v[0] != 1 || v[1] != 2 || v[2] != 3 {
		t.Fatalf("AddScaled(-1): got %v", v)
	}
}

func TestVecAddScaled(t *testing.T) {
	v := Vec{1, 1}
	v.AddScaled(2, Vec{3, 4})
	if v[0] != 7 || v[1] != 9 {
		t.Fatalf("AddScaled: got %v", v)
	}
}

func TestVecDotNorm(t *testing.T) {
	v := Vec{3, 4}
	if got := v.Dot(v); got != 25 {
		t.Fatalf("Dot: got %v", got)
	}
	if got := v.Norm(); got != 5 {
		t.Fatalf("Norm: got %v", got)
	}
}

func TestVecMaxIdx(t *testing.T) {
	cases := []struct {
		v    Vec
		want int
	}{
		{nil, -1},
		{Vec{1}, 0},
		{Vec{1, 3, 2}, 1},
		{Vec{2, 2, 2}, 0}, // first on ties
		{Vec{-5, -1, -3}, 1},
	}
	for _, c := range cases {
		if got := c.v.MaxIdx(); got != c.want {
			t.Errorf("MaxIdx(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestVecSumMean(t *testing.T) {
	v := Vec{1, 2, 3, 4}
	if v.Sum() != 10 {
		t.Fatalf("Sum: got %v", v.Sum())
	}
	if v.Mean() != 2.5 {
		t.Fatalf("Mean: got %v", v.Mean())
	}
	if (Vec{}).Mean() != 0 {
		t.Fatal("Mean of empty should be 0")
	}
}

func TestCosine(t *testing.T) {
	if got := Cosine(Vec{1, 0}, Vec{1, 0}); !almostEq(got, 1, eps) {
		t.Fatalf("parallel: got %v", got)
	}
	if got := Cosine(Vec{1, 0}, Vec{0, 1}); !almostEq(got, 0, eps) {
		t.Fatalf("orthogonal: got %v", got)
	}
	if got := Cosine(Vec{1, 0}, Vec{-1, 0}); !almostEq(got, -1, eps) {
		t.Fatalf("antiparallel: got %v", got)
	}
	if got := Cosine(Vec{0, 0}, Vec{1, 1}); got != 0 {
		t.Fatalf("zero vector: got %v", got)
	}
}

func TestSoftmaxProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(20)
		src := NewVec(n)
		for i := range src {
			src[i] = rng.NormFloat64() * 10
		}
		dst := NewVec(n)
		Softmax(dst, src)
		sum := dst.Sum()
		if !almostEq(sum, 1, 1e-9) {
			t.Fatalf("softmax sums to %v", sum)
		}
		for _, x := range dst {
			if x < 0 || x > 1 {
				t.Fatalf("softmax element out of range: %v", x)
			}
		}
		if dst.MaxIdx() != src.MaxIdx() {
			t.Fatal("softmax should preserve argmax")
		}
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	src := Vec{1, 2, 3}
	a, b := NewVec(3), NewVec(3)
	Softmax(a, src)
	shifted := src.Clone()
	for i := range shifted {
		shifted[i] += 100
	}
	Softmax(b, shifted)
	for i := range a {
		if !almostEq(a[i], b[i], 1e-9) {
			t.Fatalf("softmax not shift invariant: %v vs %v", a, b)
		}
	}
}

func TestSoftmaxLargeInputsStable(t *testing.T) {
	src := Vec{1000, 1001, 1002}
	dst := NewVec(3)
	Softmax(dst, src)
	if math.IsNaN(dst.Sum()) || !almostEq(dst.Sum(), 1, 1e-9) {
		t.Fatalf("softmax unstable on large inputs: %v", dst)
	}
}

func TestLogSumExp(t *testing.T) {
	v := Vec{math.Log(1), math.Log(2), math.Log(3)}
	if got := LogSumExp(v); !almostEq(got, math.Log(6), 1e-9) {
		t.Fatalf("LogSumExp: got %v, want %v", got, math.Log(6))
	}
	if got := LogSumExp(Vec{}); !math.IsInf(got, -1) {
		t.Fatalf("LogSumExp(empty): got %v", got)
	}
	neg := Vec{math.Inf(-1), math.Inf(-1)}
	if got := LogSumExp(neg); !math.IsInf(got, -1) {
		t.Fatalf("LogSumExp(-inf): got %v", got)
	}
}

func TestLogSumExpQuick(t *testing.T) {
	// Property: LSE(v) >= max(v) and LSE(v) <= max(v) + log(n).
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := make(Vec, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			// keep magnitudes sane
			v = append(v, math.Mod(x, 50))
		}
		if len(v) == 0 {
			return true
		}
		lse := LogSumExp(v)
		m := v.Max()
		return lse >= m-1e-9 && lse <= m+math.Log(float64(len(v)))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulVec(t *testing.T) {
	m := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	dst := NewVec(3)
	m.MulVec(dst, Vec{1, 1})
	if dst[0] != 3 || dst[1] != 7 || dst[2] != 11 {
		t.Fatalf("MulVec: got %v", dst)
	}
	tdst := NewVec(2)
	m.MulVecT(tdst, Vec{1, 1, 1})
	if tdst[0] != 9 || tdst[1] != 12 {
		t.Fatalf("MulVecT: got %v", tdst)
	}
}

func TestMatMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	b := fromRows([][]float64{{5, 6}, {7, 8}})
	c := matMul(a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("MatMul: got %v", c.Data)
			}
		}
	}
}

func TestAddOuter(t *testing.T) {
	m := NewMat(2, 3)
	m.AddOuter(Vec{1, 2}, Vec{3, 4, 5})
	want := [][]float64{{3, 4, 5}, {6, 8, 10}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != want[i][j] {
				t.Fatalf("AddOuter: got %v", m.Data)
			}
		}
	}
}

// Property: (AB)v == A(Bv) for random matrices.
func TestMatMulAssociatesWithMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := NewMat(r, k), NewMat(k, c)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		v := NewVec(c)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		ab := matMul(a, b)
		left := NewVec(r)
		ab.MulVec(left, v)
		bv := NewVec(k)
		b.MulVec(bv, v)
		right := NewVec(r)
		a.MulVec(right, bv)
		for i := range left {
			if !almostEq(left[i], right[i], 1e-9) {
				t.Fatalf("(AB)v != A(Bv): %v vs %v", left, right)
			}
		}
	}
}

func TestMatRowSharesStorage(t *testing.T) {
	m := NewMat(2, 2)
	m.Row(1)[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestMatCloneIndependent(t *testing.T) {
	m := fromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	a := NewMat(2, 3)
	b := NewMat(3, 2)
	a.Add(b)
}

// fromRows builds a matrix from row slices, which must all share a length.
func fromRows(rows [][]float64) *Mat {
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

// matMul returns a·b in a fresh matrix.
func matMul(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Add adds o into m element-wise.
func (m *Mat) Add(o *Mat) {
	m.checkSameShape(o)
	for i, x := range o.Data {
		m.Data[i] += x
	}
}

func (m *Mat) checkSameShape(o *Mat) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
}
