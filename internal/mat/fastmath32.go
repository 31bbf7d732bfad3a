package mat

import "math"

// Float32 row kernels for the reduced-precision inference tier. The decode
// applies each of them to whole rows — every softmax score of a head, an FFN
// row, a layer norm's output — so they take slices; the LSTM recurrence
// (lstm32.go) runs the sigmoid's and tanh's vector bodies on its gate
// blocks. The pure-Go loops below are the definition and the path for hosts
// without AVX-512; on AVX-512 machines the whole row runs on a vector twin
// (fastmath32_amd64.s), its last block under a k-mask, that performs the same
// unfused multiply and add per lane in the same order. Both forms are pure
// IEEE arithmetic, so a row's result is the same bits on every platform and
// dispatch path; TestRowKernelPathsBitIdentical and FuzzRow32Kernels pin the
// asm/Go identity and TestRowKernelsMatchScalarReference the identity with
// the one-element definitions kept in the tests.

// Exp32 constants: range reduction x = n·ln2 + r with the classic hi/lo
// split of ln2, then a degree-5 minimax polynomial for e^r on
// [-ln2/2, ln2/2] (Cephes expf coefficients). The vector twin reads the same
// values from expConsts.
const (
	expHi = 88.02
	expLo = -87.33654
	log2e = 1.44269504088896341
	ln2Hi = 0.693359375
	ln2Lo = -2.12194440e-4
	expP0 = 1.9875691500e-4
	expP1 = 1.3981999507e-3
	expP2 = 8.3334519073e-3
	expP3 = 4.1665795894e-2
	expP4 = 1.6666665459e-1
	expP5 = 5.0000001201e-1
)

// Tanh32 constants: the odd rational α(x²)·x / β(x²) on |x| ≤ tanhClamp
// (beyond which tanh is ±1 to float32 precision), the standard 13/6-degree
// float32 minimax pair. The vector twin reads them from tanhConsts.
const (
	tanhClamp = 7.90531110763549805
	tanhA0    = -2.76076847742355e-16
	tanhA1    = 2.00018790482477e-13
	tanhA2    = -8.60467152213735e-11
	tanhA3    = 5.12229709037114e-08
	tanhA4    = 1.48572235717979e-05
	tanhA5    = 6.37261928875436e-04
	tanhA6    = 4.89352455891786e-03
	tanhB0    = 1.19825839466702e-06
	tanhB1    = 1.18534705686654e-04
	tanhB2    = 2.26843463243900e-03
	tanhB3    = 4.89352518554385e-03
)

// ExpRow32 writes e^x for every element of src into dst (which may alias
// src). Accurate to ~2 ulp over the finite range; saturates to +Inf above
// ~88.02 and to 0 below ~-87.34 (the float32 normal range); NaN propagates.
func ExpRow32(dst, src []float32) {
	checkLen(len(dst), len(src))
	if !expRowAsm(dst, src) {
		expRowGo(dst, src)
	}
}

func expRowGo(dst, src []float32) {
	dst = dst[:len(src)]
	for i, x := range src {
		switch {
		case x != x:
			dst[i] = x
			continue
		case x > expHi:
			dst[i] = float32(math.Inf(1))
			continue
		case x < expLo:
			dst[i] = 0
			continue
		}
		// n = round(x/ln2): shift into [-ln2/2, ln2/2].
		fx := x*log2e + 0.5
		n := int32(fx)
		if float32(n) > fx { // int32 truncates toward zero; we need floor
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
		// Scale by 2^n: n is in [-126, 127] here, so the biased exponent is
		// a normal float32 and the multiply is exact.
		dst[i] = y * math.Float32frombits(uint32(n+127)<<23)
	}
}

// TanhRow32 writes tanh(x) for every element of src into dst (which may
// alias src), accurate to a few ulp everywhere; NaN propagates.
func TanhRow32(dst, src []float32) {
	checkLen(len(dst), len(src))
	if !tanhRowAsm(dst, src) {
		tanhRowGo(dst, src)
	}
}

func tanhRowGo(dst, src []float32) {
	dst = dst[:len(src)]
	for i, x := range src {
		if x != x {
			dst[i] = x
			continue
		}
		x = min(max(x, -tanhClamp), tanhClamp)
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
		dst[i] = alpha / beta
	}
}

// SigmoidRow32 writes the logistic 1/(1+e^-x) for every element of src into
// dst, which must not alias src: e^-|x|, then the numerically stable
// quotient — 1/(1+e) where x's sign bit is clear, e/(1+e) where it is set
// (at -0 both are exactly 0.5; NaN propagates).
func SigmoidRow32(dst, src []float32) {
	checkLen(len(dst), len(src))
	if !sigmoidRowAsm(dst, src) {
		sigmoidRowGo(dst, src)
	}
}

func sigmoidRowGo(dst, src []float32) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = math.Float32frombits(math.Float32bits(x) | 1<<31)
	}
	expRowGo(dst, dst)
	const one = 0x3f800000
	for i, x := range src {
		e := math.Float32bits(dst[i])
		neg := uint32(int32(math.Float32bits(x)) >> 31) // all ones where x < 0
		dst[i] = math.Float32frombits(e&neg|one&^neg) / (1 + dst[i])
	}
}

// GELU constants, as the float64 gelu has them: sqrt(2/pi) and the cubic
// term's coefficient.
const (
	geluC = 0.7978845608028654
	geluK = 0.044715
)

// GELURow32 applies the tanh-approximation GELU to every element of src
// into dst, which must not alias src, entirely in float32:
// 0.5·v·(1 + tanh(c·(v + 0.044715·v·v·v))), with TanhRow32's tanh.
func GELURow32(dst, src []float32) {
	checkLen(len(dst), len(src))
	if !geluRowAsm(dst, src) {
		geluRowGo(dst, src)
	}
}

func geluRowGo(dst, src []float32) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = geluC * (v + geluK*v*v*v)
	}
	tanhRowGo(dst, dst)
	for i, v := range src {
		dst[i] = 0.5 * v * (1 + dst[i])
	}
}

// NormRow32 is a layer norm's output pass over one float32 row: dst[i] =
// float32((float64(src[i])−mean)/std·gain[i] + bias[i]), rounded once to
// float32. dst may alias src; gain and bias have len(src) elements.
func NormRow32(dst, src []float32, gain, bias []float64, mean, std float64) {
	checkLen(len(dst), len(src))
	checkLen(len(gain), len(src))
	checkLen(len(bias), len(src))
	if !normRowAsm(dst, src, gain, bias, mean, std) {
		normRowGo(dst, src, gain, bias, mean, std)
	}
}

func normRowGo(dst, src []float32, gain, bias []float64, mean, std float64) {
	dst, gain, bias = dst[:len(src)], gain[:len(src)], bias[:len(src)]
	for i, v := range src {
		dst[i] = float32((float64(v)-mean)/std*gain[i] + bias[i])
	}
}
