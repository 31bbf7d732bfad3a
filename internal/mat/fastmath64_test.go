package mat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// row64Kernels lists every float64 row kernel with the scalar function it
// must reproduce bit for bit, NaN payloads included.
var row64Kernels = []struct {
	name string
	row  func(dst, src []float64)
	ref  func(float64) float64
}{
	{"ExpRow", ExpRow, math.Exp},
	{"TanhRow", TanhRow, math.Tanh},
	{"SigmoidRow", SigmoidRow, Sigmoid},
}

// row64Boundaries are the inputs where the scalar code branches: tanh's
// rational/exp cut at 0.625 and its saturation at 0.5·MAXLOG, exp's overflow
// threshold, its denormal and underflow ranges, signed zeros, infinities,
// NaNs with distinct payloads and signs (quiet and signalling) and the
// extremes of the finite range.
func row64Boundaries() []float64 {
	const (
		expOverflow = 7.09782712893384e+02         // exp_amd64.s: above it, +Inf
		tanhMaxLog  = 8.8029691931113054295988e+01 // tanh.go: above half of it, ±1
	)
	inf := math.Inf(1)
	xs := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, -0.5,
		0.625, math.Nextafter(0.625, 0), -0.625, -math.Nextafter(0.625, 0),
		0.5 * tanhMaxLog, math.Nextafter(0.5*tanhMaxLog, inf), -0.5 * tanhMaxLog,
		expOverflow, math.Nextafter(expOverflow, inf), math.Nextafter(expOverflow, 0), 709.78, 710,
		-708, -708.4, -708.39641853226408, -709, -720, -740, -744.44, -745.1, -745.13321910194110, -745.2, -746,
		inf, -inf, math.NaN(), -math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF4000000000123),
		math.Float64frombits(0x7FF8DEADBEEF0001), math.Float64frombits(0xFFFFFFFFFFFFFFFF),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2.2250738585072014e-308, 1e-300, -1e-300, 1e-162, 1e-8, -1e-8, 22, -22, 36.7, -36.7, 1e10, -1e10,
	}
	for _, x := range xs[:len(xs):len(xs)] {
		xs = append(xs, math.Nextafter(x, inf), math.Nextafter(x, -inf))
	}
	return xs
}

// row64Distributions draws 2²¹ inputs from each family the row kernels
// see or could see: the activations' normal spread, the softmax and gate
// range (±60), beyond exp's overflow and underflow (±800) and arbitrary bit
// patterns (every NaN payload, subnormal and huge magnitude).
func row64Distributions() map[string][]float64 {
	const n = 1 << 21
	rng := rand.New(rand.NewSource(33))
	gen := func(f func() float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f()
		}
		return xs
	}
	return map[string][]float64{
		"normal":   gen(func() float64 { return rng.NormFloat64() * 3 }),
		"pm60":     gen(func() float64 { return (rng.Float64()*2 - 1) * 60 }),
		"pm800":    gen(func() float64 { return (rng.Float64()*2 - 1) * 800 }),
		"randbits": gen(func() float64 { return math.Float64frombits(rng.Uint64()) }),
	}
}

// forEachDispatch runs f on the vector path (where the CPU has it) and on
// the pure-Go path ForceScalar selects.
func forEachDispatch(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	paths := []string{"scalar"}
	if hasAVX512 {
		paths = append(paths, "vector")
	}
	for _, p := range paths {
		t.Run(p, func(t *testing.T) {
			if p == "scalar" {
				defer ForceScalar()()
			}
			f(t)
		})
	}
}

// checkRow64 runs the kernel over src into a fresh dst and, again, in place,
// and compares every element with the scalar reference.
func checkRow64(t *testing.T, name string, row func(dst, src []float64), ref func(float64) float64, src []float64) {
	t.Helper()
	dst := make([]float64, len(src))
	row(dst, src)
	inPlace := append([]float64(nil), src...)
	row(inPlace, inPlace)
	for i, x := range src {
		want := math.Float64bits(ref(x))
		if got := math.Float64bits(dst[i]); got != want {
			t.Fatalf("%s(%v [%#016x]) = %#016x, want %#016x (len %d, index %d)",
				name, x, math.Float64bits(x), got, want, len(src), i)
		}
		if got := math.Float64bits(inPlace[i]); got != want {
			t.Fatalf("%s in place (%v [%#016x]) = %#016x, want %#016x", name, x, math.Float64bits(x), got, want)
		}
	}
}

// TestRow64KernelsMatchMath pins ExpRow, TanhRow and SigmoidRow to math.Exp,
// math.Tanh and Sigmoid bit for bit on both dispatch paths: the boundary
// list at every offset of an 8-lane block, 2²¹ inputs from each
// distribution, every length 0–17 and 64 (full blocks, masked tails) and
// dst aliasing src.
func TestRow64KernelsMatchMath(t *testing.T) {
	dists := row64Distributions()
	bounds := row64Boundaries()
	forEachDispatch(t, func(t *testing.T) {
		for _, k := range row64Kernels {
			t.Run(k.name, func(t *testing.T) {
				for off := 0; off < 8; off++ {
					src := append(make([]float64, off), bounds...)
					checkRow64(t, k.name, k.row, k.ref, src)
				}
				for name, xs := range dists {
					t.Run(name, func(t *testing.T) { checkRow64(t, k.name, k.row, k.ref, xs) })
				}
				rng := rand.New(rand.NewSource(7))
				for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64} {
					src := make([]float64, n)
					for i := range src {
						src[i] = bounds[rng.Intn(len(bounds))]
					}
					// Elements past the row must be neither read into the
					// result nor written.
					buf := make([]float64, n+8)
					for i := range buf {
						buf[i] = 12345
					}
					k.row(buf[:n], src)
					for i := n; i < len(buf); i++ {
						if buf[i] != 12345 {
							t.Fatalf("%s wrote past a row of %d (index %d)", k.name, n, i)
						}
					}
					checkRow64(t, fmt.Sprintf("%s/len%d", k.name, n), k.row, k.ref, src)
				}
			})
		}
	})
}

// FuzzRow64Kernels feeds arbitrary bit patterns, as one row of any length,
// through every float64 row kernel and requires the scalar function's bits
// at every element. The committed corpus (testdata/fuzz/FuzzRow64Kernels)
// holds rows of the boundary inputs at ragged lengths.
func FuzzRow64Kernels(f *testing.F) {
	le := binary.LittleEndian
	seed := func(vals ...float64) {
		b := make([]byte, 8*len(vals))
		for i, v := range vals {
			le.PutUint64(b[i*8:], math.Float64bits(v))
		}
		f.Add(b)
	}
	bounds := row64Boundaries()
	seed(bounds[:9]...)
	seed(bounds[9:26]...)
	seed(bounds[26:]...)
	seed(-3.5, 2, 0.7, -0.1, 11, -44.5, 700, -745)

	f.Fuzz(func(t *testing.T, data []byte) {
		n := min(len(data)/8, 256)
		src := make([]float64, n)
		for i := range src {
			src[i] = math.Float64frombits(le.Uint64(data[i*8:]))
		}
		for _, k := range row64Kernels {
			checkRow64(t, k.name, k.row, k.ref, src)
		}
	})
}

// TestSoftmaxIdenticalToScalarLoop pins Softmax, whose exponentials are one
// ExpRow, to the per-element loop it replaced — math.Exp(x − max), summed in
// ascending order, times the reciprocal — on both dispatch paths, at the
// widths of a sentence's attention rows and in place.
func TestSoftmaxIdenticalToScalarLoop(t *testing.T) {
	forEachDispatch(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(34))
		for _, n := range []int{1, 2, 5, 8, 12, 19, 28, 48} {
			src := make(Vec, n)
			for i := range src {
				src[i] = rng.NormFloat64() * 6
			}
			want := make(Vec, n)
			m := src.Max()
			var sum float64
			for i, x := range src {
				want[i] = math.Exp(x - m)
				sum += want[i]
			}
			inv := 1 / sum
			for i := range want {
				want[i] *= inv
			}
			got := make(Vec, n)
			Softmax(got, src)
			Softmax(src, src)
			for i := range want {
				if got[i] != want[i] || src[i] != want[i] {
					t.Fatalf("n=%d [%d]: %v (in place %v), want %v", n, i, got[i], src[i], want[i])
				}
			}
		}
	})
}
