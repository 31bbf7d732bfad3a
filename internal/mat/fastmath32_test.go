package mat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// refExp32, refTanh32 and refSigmoid32 are the scalar, one-call-per-element
// definitions the decode used before it went row-at-a-time. They stay here
// as the reference every row kernel — Go loop and vector twin alike — must
// reproduce bit for bit.
func refExp32(x float32) float32 {
	if x != x {
		return x
	}
	if x > expHi {
		return float32(math.Inf(1))
	}
	if x < expLo {
		return 0
	}
	fx := x*log2e + 0.5
	n := int32(fx)
	if float32(n) > fx {
		n--
	}
	fn := float32(n)
	r := x - fn*ln2Hi
	r -= fn * ln2Lo
	z := r * r
	y := float32(expP0)
	y = y*r + expP1
	y = y*r + expP2
	y = y*r + expP3
	y = y*r + expP4
	y = y*r + expP5
	y = y*z + r + 1
	return y * math.Float32frombits(uint32(n+127)<<23)
}

func refTanh32(x float32) float32 {
	if x != x {
		return x
	}
	if x > tanhClamp {
		x = tanhClamp
	} else if x < -tanhClamp {
		x = -tanhClamp
	}
	x2 := x * x
	alpha := float32(tanhA0)
	alpha = alpha*x2 + tanhA1
	alpha = alpha*x2 + tanhA2
	alpha = alpha*x2 + tanhA3
	alpha = alpha*x2 + tanhA4
	alpha = alpha*x2 + tanhA5
	alpha = alpha*x2 + tanhA6
	alpha *= x
	beta := float32(tanhB0)
	beta = beta*x2 + tanhB1
	beta = beta*x2 + tanhB2
	beta = beta*x2 + tanhB3
	return alpha / beta
}

func refSigmoid32(x float32) float32 {
	if x >= 0 {
		return 1 / (1 + refExp32(-x))
	}
	e := refExp32(x)
	return e / (1 + e)
}

// refGELU32 is the per-element GELU the decode ran before GELURow32 took
// whole rows: the tanh argument, a one-element tanh, the product.
func refGELU32(v float32) float32 {
	const c = 0.7978845608028654
	th := refTanh32(c * (v + 0.044715*v*v*v))
	return 0.5 * v * (1 + th)
}

// rowKernels lists every element-wise float32 row kernel with its scalar
// reference.
var rowKernels = []struct {
	name string
	row  func(dst, src []float32)
	ref  func(float32) float32
}{
	{"ExpRow32", ExpRow32, refExp32},
	{"TanhRow32", TanhRow32, refTanh32},
	{"SigmoidRow32", SigmoidRow32, refSigmoid32},
	{"GELURow32", GELURow32, refGELU32},
}

// normRowCase runs NormRow32 over src the way LayerNorm.ApplyInto32 does:
// float64 moments summed in element order, seeded gain and bias around 1
// and 0.
func normRowCase(dst, src []float32) {
	n := len(src)
	if n == 0 {
		NormRow32(dst, src, nil, nil, 0, 1)
		return
	}
	rng := rand.New(rand.NewSource(int64(n)))
	gain, bias := make([]float64, n), make([]float64, n)
	for i := range gain {
		gain[i], bias[i] = 1+0.2*rng.NormFloat64(), 0.1*rng.NormFloat64()
	}
	var sum float64
	for _, v := range src {
		sum += float64(v)
	}
	mean := sum / float64(n)
	var varSum float64
	for _, v := range src {
		d := float64(v) - mean
		varSum += d * d
	}
	NormRow32(dst, src, gain, bias, mean, math.Sqrt(varSum/float64(n)+1e-5))
}

// softmaxColsCase runs SoftmaxCols32 over src as the densest matrix of
// at most 48 columns it fills: the transposed scores of a head.
func softmaxColsCase(dst, src []float32) {
	copy(dst, src)
	cols := min(len(src), 48)
	if cols == 0 {
		return
	}
	rows := len(src) / cols
	SoftmaxCols32(&Mat32{Rows: rows, Cols: cols, Data: dst[:rows*cols]}, 0.35355339, make([]float32, cols))
}

// rowPathKernels is every float32 row kernel with a vector twin, as a
// function of one row: the element-wise ones, NormRow32 and SoftmaxCols32.
// It is the table TestRowKernelPathsBitIdentical and FuzzRow32Kernels run
// on both dispatch paths. finite marks the kernels that reduce over the row
// (a single Inf or NaN makes the whole row NaN), which the test feeds
// finite rows.
var rowPathKernels = []struct {
	name   string
	row    func(dst, src []float32)
	finite bool
}{
	{"ExpRow32", ExpRow32, false},
	{"TanhRow32", TanhRow32, false},
	{"SigmoidRow32", SigmoidRow32, false},
	{"GELURow32", GELURow32, false},
	{"NormRow32", normRowCase, true},
	{"SoftmaxCols32", softmaxColsCase, true},
}

// rowKernelInputs returns n inputs: the edge cases every kernel branches or
// clamps on, then seeded values spread over ±100 with a few tiny and huge
// magnitudes mixed in.
func rowKernelInputs(rng *rand.Rand, n int) []float32 {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	edges := []float32{0, float32(math.Copysign(0, -1)), 1, -1, nan, -nan, inf, -inf,
		expHi, math.Nextafter32(expHi, inf), expLo, math.Nextafter32(expLo, -inf), 88.7, -88.7,
		tanhClamp, -tanhClamp, 7.9, -7.9, 1e-45, -1e-45, 1e-20, 3e38, -3e38, 0.5, -0.5}
	out := make([]float32, n)
	for i := range out {
		switch {
		case i < len(edges):
			out[i] = edges[i]
		case rng.Intn(8) == 0:
			out[i] = float32(rng.NormFloat64() * 100)
		default:
			out[i] = float32(rng.NormFloat64() * 4)
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sameBits32 is bit equality, with any two NaNs equal: the kernels promise
// that NaN propagates, not which payload survives.
func sameBits32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// rowKernelWidths covers every length 0..64 (each masked tail of one to four
// 16-lane blocks, and of the 8-lane NormRow32), rows of 8..256 (a
// sentence's tokens, Dim, 4H and FFDim) and a whole 19×19 softmax matrix
// (361).
var rowKernelWidths = func() []int {
	var ws []int
	for n := 0; n <= 64; n++ {
		ws = append(ws, n)
	}
	return append(ws, 65, 96, 100, 127, 128, 200, 255, 256, 361)
}()

// TestRowKernelsMatchScalarReference pins the row kernels — on whatever path
// this machine dispatches to — to the scalar definitions they replaced, bit
// for bit, edge cases included.
func TestRowKernelsMatchScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, k := range rowKernels {
		for _, n := range rowKernelWidths {
			src := rowKernelInputs(rng, n)
			dst := make([]float32, n)
			k.row(dst, src)
			for i, x := range src {
				if want := k.ref(x); !sameBits32(dst[i], want) {
					t.Fatalf("%s width %d: f(%v) = %v, scalar reference %v", k.name, n, x, dst[i], want)
				}
			}
		}
	}
}

// guard32 is the sentinel rowWithGuard fills past a row's end.
const guard32 = 0x7fc0dead

// rowWithGuard returns a zeroed n-element slice whose backing array runs on
// for 32 elements of a NaN sentinel, so a masked store that spilled past the
// row would show; checkGuard32 reads the sentinel back.
func rowWithGuard(n int) []float32 {
	buf := make([]float32, n+32)
	for i := n; i < len(buf); i++ {
		buf[i] = math.Float32frombits(guard32)
	}
	return buf[:n]
}

func checkGuard32(t *testing.T, name string, row []float32) {
	t.Helper()
	for i, v := range row[len(row):cap(row)] {
		if math.Float32bits(v) != guard32 {
			t.Fatalf("%s: wrote %v at %d past the end of a %d-element row", name, v, i, len(row))
		}
	}
}

// TestRowKernelPathsBitIdentical forces the pure-Go loops and compares them
// with the vector twins on the same rows, bit for bit (any two NaNs equal),
// at every width of rowKernelWidths; the vector twin must write nothing past
// the row. The flag is only ever downgraded.
func TestRowKernelPathsBitIdentical(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512 on this machine; only the Go path exists")
	}
	defer func() { hasAVX512 = true }()
	rng := rand.New(rand.NewSource(42))
	for _, k := range rowPathKernels {
		for _, n := range rowKernelWidths {
			src := rowKernelInputs(rng, n)
			if k.finite {
				src = finiteRow(rng, n)
			}
			asm, pure := rowWithGuard(n), rowWithGuard(n)
			hasAVX512 = true
			k.row(asm, src)
			hasAVX512 = false
			k.row(pure, src)
			checkGuard32(t, k.name, asm)
			for i := range src {
				if !sameBits32(asm[i], pure[i]) {
					t.Fatalf("%s width %d: [%d] (%v) = %v on AVX-512, %v in Go", k.name, n, i, src[i], asm[i], pure[i])
				}
			}
		}
	}
}

// finiteRow returns n seeded activations: normal spread, a few large
// logits, and signed zeros and subnormals at fixed places.
func finiteRow(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rng.NormFloat64() * 3)
		if rng.Intn(10) == 0 {
			out[i] *= 30
		}
	}
	for i, v := range []float32{0, float32(math.Copysign(0, -1)), 1e-45, -1e-40} {
		if j := 3 * i; j < n {
			out[j] = v
		}
	}
	return out
}

// TestSoftmaxCols32MaxEdgeCases feeds the column max the inputs where
// `if v > stat { stat = v }` and a max instruction can part ways — NaN before
// and after numbers, +0 against -0 in either order, ±Inf, subnormals, equal
// maxima — and requires the vector path to reproduce the Go path and the
// per-column reference bit for bit (any two NaNs equal).
func TestSoftmaxCols32MaxEdgeCases(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negz := float32(math.Copysign(0, -1))
	cols := [][]float32{
		{nan, 1, 2},
		{1, nan, 2},
		{1, 2, nan},
		{0, negz, 0},
		{negz, 0, negz},
		{negz, negz},
		{0, 0},
		{-1e-45, 1e-45, 0},
		{1e-45, negz, -1e-45},
		{inf, 1, 2},
		{1, -inf, 2},
		{-inf, -inf},
		{inf, inf},
		{3, 3, 3},
		{-2, 5, 5, -2},
		{1e-38, 1e-39, 1e-40},
	}
	// One matrix per height: column c holds the case c's scores, padded
	// with -Inf (exp → 0, a neutral addend) to the tallest case.
	rows := 0
	for _, c := range cols {
		rows = max(rows, len(c))
	}
	paths := []bool{false}
	if hasAVX512 {
		paths = append(paths, true)
		defer func() { hasAVX512 = true }()
	}
	for _, width := range []int{len(cols), 17, 33} {
		src := NewMat32(rows, width)
		for c := 0; c < width; c++ {
			col := cols[c%len(cols)]
			for r := 0; r < rows; r++ {
				v := -inf
				if r < len(col) {
					v = col[r]
				}
				src.Data[r*width+c] = v
			}
		}
		want := NewMat32(rows, width)
		colIn, colOut := make([]float32, rows), make([]float32, rows)
		for c := 0; c < width; c++ {
			for r := range colIn {
				colIn[r] = src.Data[r*width+c]
			}
			refSoftmax32(colOut, colIn)
			for r, v := range colOut {
				want.Data[r*width+c] = v
			}
		}
		for _, vec := range paths {
			hasAVX512 = vec
			got := &Mat32{Rows: rows, Cols: width, Data: append([]float32(nil), src.Data...)}
			SoftmaxCols32(got, 1, make([]float32, width))
			for i, w := range want.Data {
				if !sameBits32(got.Data[i], w) {
					t.Fatalf("width %d avx512=%v: column %d row %d = %v, reference %v",
						width, vec, i%width, i/width, got.Data[i], w)
				}
			}
		}
	}
}

// FuzzRow32Kernels feeds arbitrary bit patterns, as one row of any length,
// through every float32 row kernel with a vector twin and requires the
// vector path to reproduce the Go path bit for bit (any two NaNs equal),
// and the element-wise ones their scalar reference. The committed corpus
// (testdata/fuzz/FuzzRow32Kernels) holds rows of the edge inputs at ragged
// lengths.
func FuzzRow32Kernels(f *testing.F) {
	le := binary.LittleEndian
	seed := func(vals ...float32) {
		b := make([]byte, 4*len(vals))
		for i, v := range vals {
			le.PutUint32(b[i*4:], math.Float32bits(v))
		}
		f.Add(b)
	}
	seed(1, -2.5, 0.25, 7, -88, 88.5, 3)
	seed(rowKernelInputs(rand.New(rand.NewSource(7)), 25)...)

	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/4, 256)
		src := make([]float32, n)
		for i := range src {
			src[i] = math.Float32frombits(le.Uint32(data[i*4:]))
		}
		for _, k := range rowKernels {
			dst := make([]float32, n)
			k.row(dst, src)
			for i, x := range src {
				if want := k.ref(x); !sameBits32(dst[i], want) {
					t.Fatalf("%s(%v [%#08x]) = %v, reference %v (len %d)", k.name, x, math.Float32bits(x), dst[i], want, n)
				}
			}
		}
		if !hasAVX512 {
			return
		}
		defer func() { hasAVX512 = true }()
		for _, k := range rowPathKernels {
			asm, pure := rowWithGuard(n), make([]float32, n)
			hasAVX512 = true
			k.row(asm, src)
			hasAVX512 = false
			k.row(pure, src)
			hasAVX512 = true
			checkGuard32(t, k.name, asm)
			for i := range src {
				if !sameBits32(asm[i], pure[i]) {
					t.Fatalf("%s len %d: [%d] (%#08x) = %v on AVX-512, %v in Go", k.name, n, i, math.Float32bits(src[i]), asm[i], pure[i])
				}
			}
		}
	})
}

// relErr32 is |got-want|/max(|want|, tiny) in float64.
func relErr32(got float32, want float64) float64 {
	d := math.Abs(float64(got) - want)
	m := math.Abs(want)
	if m < 1e-30 {
		return d
	}
	return d / m
}

// sweep32 evaluates a row kernel on lo, lo+step, … ≤ hi.
func sweep32(row func(dst, src []float32), lo, hi, step float64) (xs []float64, ys []float32) {
	var src []float32
	for x := lo; x <= hi; x += step {
		xs = append(xs, x)
		src = append(src, float32(x))
	}
	ys = make([]float32, len(src))
	row(ys, src)
	return xs, ys
}

func at32(row func(dst, src []float32), x float32) float32 {
	dst := []float32{0}
	row(dst, []float32{x})
	return dst[0]
}

func TestExpRow32Accuracy(t *testing.T) {
	// Sweep the useful range densely; relative error must stay at float32
	// polynomial accuracy (a few ulp ≈ 1e-6).
	xs, ys := sweep32(ExpRow32, -87, 88, 0.0137)
	for i, x := range xs {
		if e := relErr32(ys[i], math.Exp(float64(float32(x)))); e > 5e-6 {
			t.Fatalf("ExpRow32(%v) = %v, want %v (rel err %v)", x, ys[i], math.Exp(x), e)
		}
	}
	if got := at32(ExpRow32, 0); got != 1 {
		t.Fatalf("ExpRow32(0) = %v, want 1", got)
	}
	if got := at32(ExpRow32, 200); !math.IsInf(float64(got), 1) {
		t.Fatalf("ExpRow32(200) = %v, want +Inf", got)
	}
	if got := at32(ExpRow32, -200); got != 0 {
		t.Fatalf("ExpRow32(-200) = %v, want 0", got)
	}
	if got := at32(ExpRow32, float32(math.NaN())); got == got {
		t.Fatalf("ExpRow32(NaN) = %v, want NaN", got)
	}
}

func TestTanhRow32Accuracy(t *testing.T) {
	xs, ys := sweep32(TanhRow32, -12, 12, 0.0031)
	for i, x := range xs {
		if e := relErr32(ys[i], math.Tanh(float64(float32(x)))); e > 5e-6 {
			t.Fatalf("TanhRow32(%v) = %v, want %v (rel err %v)", x, ys[i], math.Tanh(x), e)
		}
	}
	if got := at32(TanhRow32, 0); got != 0 {
		t.Fatalf("TanhRow32(0) = %v, want 0", got)
	}
	// Saturation and odd symmetry at the clamp boundary.
	if got := at32(TanhRow32, 50); math.Abs(float64(got)-1) > 1e-6 {
		t.Fatalf("TanhRow32(50) = %v, want ≈1", got)
	}
	for _, x := range []float32{0.1, 1.5, 7, 30} {
		if at32(TanhRow32, -x) != -at32(TanhRow32, x) {
			t.Fatalf("TanhRow32 not odd at %v", x)
		}
	}
	if got := at32(TanhRow32, float32(math.NaN())); got == got {
		t.Fatalf("TanhRow32(NaN) = %v, want NaN", got)
	}
}

func TestSigmoidRow32Accuracy(t *testing.T) {
	xs, ys := sweep32(SigmoidRow32, -30, 30, 0.0071)
	for i, x := range xs {
		if e := relErr32(ys[i], 1/(1+math.Exp(-float64(float32(x))))); e > 5e-6 {
			t.Fatalf("SigmoidRow32(%v) = %v (rel err %v)", x, ys[i], e)
		}
	}
	if got := at32(SigmoidRow32, 0); got != 0.5 {
		t.Fatalf("SigmoidRow32(0) = %v, want 0.5", got)
	}
	// The stable quotient keeps tiny tails finite and positive.
	if got := at32(SigmoidRow32, -80); got < 0 || got > 1e-30 {
		t.Fatalf("SigmoidRow32(-80) = %v, want tiny positive", got)
	}
	if got := at32(SigmoidRow32, 80); got != 1 {
		t.Fatalf("SigmoidRow32(80) = %v, want 1", got)
	}
}
