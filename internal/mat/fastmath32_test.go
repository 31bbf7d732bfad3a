package mat

import (
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

// rowKernels lists every float32 row kernel with its scalar reference.
var rowKernels = []struct {
	name string
	row  func(dst, src []float32)
	ref  func(float32) float32
}{
	{"ExpRow32", ExpRow32, refExp32},
	{"TanhRow32", TanhRow32, refTanh32},
	{"SigmoidRow32", SigmoidRow32, refSigmoid32},
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

// rowKernelWidths covers the vector boundary (15/16/17), the decode's row
// widths (32, 64, 128) and a whole 19×19 softmax matrix (361).
var rowKernelWidths = []int{0, 1, 15, 16, 17, 32, 64, 100, 128, 361}

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

// TestRowKernelPathsBitIdentical forces the pure-Go loops and compares them
// with the vector twins on the same rows (the flag is only ever downgraded).
func TestRowKernelPathsBitIdentical(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512 on this machine; only the Go path exists")
	}
	defer func() { hasAVX512 = true }()
	rng := rand.New(rand.NewSource(42))
	for _, k := range rowKernels {
		for _, n := range rowKernelWidths {
			src := rowKernelInputs(rng, n)
			asm := make([]float32, n)
			pure := make([]float32, n)
			hasAVX512 = true
			k.row(asm, src)
			hasAVX512 = false
			k.row(pure, src)
			for i := range src {
				if !sameBits32(asm[i], pure[i]) {
					t.Fatalf("%s width %d: f(%v) = %v on AVX-512, %v in Go", k.name, n, src[i], asm[i], pure[i])
				}
			}
		}
	}
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
