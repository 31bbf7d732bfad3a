package mat

import (
	"math"
	"math/rand"
	"testing"
)

func randMat32(rng *rand.Rand, rows, cols int) *Mat32 {
	m := NewMat32(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32((rng.Float64() - 0.5) * float64(int(1)<<(rng.Intn(12))))
		if rng.Intn(16) == 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// quantKernelShapes stress the dispatch boundaries: rows below/at/above the
// 16-row VNNI block, K below/at/above one QuantK group, and the exact bench
// shapes (4H×In LSTM gates, NumLabels×OutDim projections).
var quantKernelShapes = []struct{ m, n, k int }{
	{1, 1, 1},
	{1, 16, 64},
	{3, 15, 63}, // all-tail: no full VNNI block, padded K
	{2, 16, 64},
	{5, 17, 65},
	{4, 32, 64},
	{7, 33, 100},
	{8, 128, 32},
	{12, 64, 129},
	{1, 9, 48},
}

// quantNaiveRef recomputes dequant(Aq·Wᵀ)+bias from the quantized operands
// with plain nested loops and the same scalar dequantization formula —
// independent of every kernel path.
func quantNaiveRef(rows int, aq []uint8, aScales []float32, w *Int8Weights, bias []float32) *Mat32 {
	out := NewMat32(rows, w.Rows)
	for i := 0; i < rows; i++ {
		arow := aq[i*w.KP : (i+1)*w.KP]
		for j := 0; j < w.Rows; j++ {
			wrow := w.Data[j*w.KP : (j+1)*w.KP]
			var acc int32
			for k := range arow {
				acc += int32(arow[k]) * int32(wrow[k])
			}
			out.Data[i*w.Rows+j] = float32(acc-w.Corr[j])*(aScales[i]*w.Scales[j]) + bias[j]
		}
	}
	return out
}

func quantizeActivations(a *Mat32) (aq []uint8, scales []float32) {
	kp := padK(a.Cols)
	aq = make([]uint8, a.Rows*kp)
	scales = make([]float32, a.Rows)
	for i := 0; i < a.Rows; i++ {
		scales[i] = QuantizeRowU8(aq[i*kp:(i+1)*kp], a.Row(i))
	}
	return aq, scales
}

func mulInt8(rows int, aq []uint8, aScales []float32, w *Int8Weights, bias []float32) *Mat32 {
	dst := NewMat32(rows, w.Rows)
	acc := make([]int32, w.Rows)
	MulABtInt8Into(dst, aq, aScales, w, bias, acc)
	return dst
}

func requireBitEqual32(t *testing.T, name string, want, got *Mat32) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, wv := range want.Data {
		if got.Data[i] != wv {
			t.Fatalf("%s: element %d = %v, want %v (bit-exact)", name, i, got.Data[i], wv)
		}
	}
}

func TestMulABtInt8MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range quantKernelShapes {
		wf := randMat(rng, sh.n, sh.k)
		w := QuantizeRows(wf)
		a := randMat32(rng, sh.m, sh.k)
		aq, scales := quantizeActivations(a)
		bias := make([]float32, sh.n)
		for j := range bias {
			bias[j] = float32(rng.NormFloat64())
		}
		want := quantNaiveRef(sh.m, aq, scales, w, bias)
		got := mulInt8(sh.m, aq, scales, w, bias)
		requireBitEqual32(t, "int8 gemm with bias", want, got)
		zero := make([]float32, sh.n)
		wantZB := quantNaiveRef(sh.m, aq, scales, w, zero)
		gotZB := mulInt8(sh.m, aq, scales, w, zero)
		requireBitEqual32(t, "int8 gemm zero bias", wantZB, gotZB)
	}
}

// refQuantizeRowU8 is the activation quantizer as it was before it went
// branch-free (ordered max-abs scan, round by magic add and subtract, a
// three-way clamp-or-NaN switch): the reference QuantizeRowU8 must reproduce
// exactly, special values included.
func refQuantizeRowU8(dst []uint8, src []float32) float32 {
	var maxAbs float32
	for _, v := range src {
		a := v
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	s := quantScale(float64(maxAbs))
	const magic = float32(3 << 22)
	inv := 1 / s
	for k, v := range src {
		r := v*inv + magic
		r -= magic
		var q int32
		switch {
		case r > 127:
			q = 127
		case r < -127:
			q = -127
		case r == r:
			q = int32(r)
		}
		dst[k] = uint8(q + 128)
	}
	for k := len(src); k < len(dst); k++ {
		dst[k] = 128
	}
	return s
}

// TestQuantizeRowU8MatchesReference runs the quantizer — vector twin and Go
// loop — against the reference on ordinary rows and on rows holding NaN,
// ±Inf, only zeros, denormals, and magnitudes on either side of the
// magic-number window (where the code is no longer in the sum's low bits and
// the clamp alone must decide).
func TestQuantizeRowU8MatchesReference(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	special := [][]float32{
		{0, 0, 0},
		{nan, nan},
		{nan, 2, -2, -nan},
		{inf, -inf, 1, -1, nan},
		{inf, 3e38, -3e38, 12582912, -12582912, -12582913, -12582911, 4194304, -4194305, 127.5, -127.5, 128.5},
		{1e-45, -1e-45, 0},
		{1e-40, 5e-41},
		{0.5, 1.5, 2.5, -0.5, -1.5, 127},
		{-3e38, 1},
	}
	rng := rand.New(rand.NewSource(15))
	for _, n := range []int{1, 15, 16, 17, 63, 64, 65, 128, 200} {
		special = append(special, randMat32(rng, 1, n).Data)
		wide := make([]float32, n) // a special value in every lane position
		copy(wide, randMat32(rng, 1, n).Data)
		wide[rng.Intn(n)] = nan
		wide[rng.Intn(n)] = -inf
		special = append(special, wide)
	}
	check := func(path string) {
		for _, src := range special {
			want := make([]uint8, padK(len(src)))
			got := make([]uint8, padK(len(src)))
			ws := refQuantizeRowU8(want, src)
			gs := QuantizeRowU8(got, src)
			if ws != gs || string(want) != string(got) {
				t.Fatalf("%s: row %v: scale %v codes %v, reference scale %v codes %v",
					path, src, gs, got[:len(src)], ws, want[:len(src)])
			}
		}
	}
	check("dispatched")
	if hasAVX512 {
		hasAVX512 = false
		defer func() { hasAVX512 = true }()
		check("pure Go")
	}
}

func TestQuantizeRowsEdgeCases(t *testing.T) {
	w := NewMat(4, 3)
	// row 0: all zero — scale must guard to 1, codes 0
	// row 1: denormal values whose scale would underflow float32 — guard to 1
	// row 2: huge values whose scale would overflow float32 — guard to 1
	// row 3: ±max exercising the clamp
	w.Data = []float64{
		0, 0, 0,
		5e-324, -5e-324, 0,
		math.MaxFloat64, -math.MaxFloat64, 1,
		3, -3, 1.5,
	}
	q := QuantizeRows(w)
	for r := 0; r < 3; r++ {
		if q.Scales[r] != 1 {
			t.Fatalf("row %d: scale = %v, want guard value 1", r, q.Scales[r])
		}
	}
	for k := 0; k < q.KP; k++ {
		if q.Data[k] != 0 {
			t.Fatalf("zero row quantized to nonzero code %d at %d", q.Data[k], k)
		}
	}
	if got := q.Data[2*q.KP : 2*q.KP+3]; got[0] != 127 || got[1] != -127 || got[2] != 1 {
		t.Fatalf("overflow row codes = %v, want [127 -127 1]", got)
	}
	if q.Data[3*q.KP] != 127 || q.Data[3*q.KP+1] != -127 {
		t.Fatalf("±max row codes = %d,%d, want 127,-127", q.Data[3*q.KP], q.Data[3*q.KP+1])
	}
	if q.Corr[3] != 128*(127-127+int32(q.Data[3*q.KP+2])) {
		t.Fatalf("Corr[3] = %d inconsistent with codes", q.Corr[3])
	}

	nan := NewMat(1, 2)
	nan.Data = []float64{math.NaN(), 2}
	qn := QuantizeRows(nan)
	if qn.Data[0] != 0 {
		t.Fatalf("NaN weight quantized to %d, want 0", qn.Data[0])
	}
	if qn.Data[1] != 127 {
		t.Fatalf("max weight beside NaN = %d, want 127", qn.Data[1])
	}
}

// TestQuantRoundTripFixedPoint: quantize→dequantize→requantize must
// reproduce the codes and scales exactly. The fuzz target generalizes this;
// the unit test pins the deterministic seed shapes.
func TestQuantRoundTripFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, rows := range []int{1, 3, 16, 17} {
		w := randMat(rng, rows, 33)
		q1 := QuantizeRows(w)
		q2 := QuantizeRows(q1.Dequantize())
		for i := range q1.Scales {
			if q1.Scales[i] != q2.Scales[i] {
				t.Fatalf("row %d: requantized scale %v != %v", i, q2.Scales[i], q1.Scales[i])
			}
		}
		for i := range q1.Data {
			if q1.Data[i] != q2.Data[i] {
				t.Fatalf("code %d: requantized %d != %d", i, q2.Data[i], q1.Data[i])
			}
		}
	}
}

func TestQuantizeRowU8Padding(t *testing.T) {
	src := []float32{1, -2, 3}
	dst := make([]uint8, padK(len(src)))
	s := QuantizeRowU8(dst, src)
	if s <= 0 {
		t.Fatalf("scale = %v, want > 0", s)
	}
	for k := len(src); k < len(dst); k++ {
		if dst[k] != 128 {
			t.Fatalf("padding byte %d = %d, want 128 (offset-binary zero)", k, dst[k])
		}
	}
	if dst[2] != 128+127 {
		t.Fatalf("max element code = %d, want %d", dst[2], 128+127)
	}
}
