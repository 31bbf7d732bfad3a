//go:build amd64

package mat

import "math"

// The float64 row transcendentals' AVX-512 arms (fastmath64_amd64.s). Unlike
// every other float64 kernel in this package they use FMA: they transcribe
// math.Exp's amd64 assembly, whose AVX+FMA arm fuses, and detectAVX512
// requires AVX and FMA so that the fused arm is the one math runs too.

//go:noescape
func expRow64AVX512(dst, src *float64, n int, consts *uint64)

//go:noescape
func tanhRow64AVX512(dst, src *float64, n int, consts *uint64)

//go:noescape
func sigmoidRow64AVX512(dst, src *float64, n int, consts *uint64)

// Constants of math.Exp's amd64 assembly (exp_amd64.s: LOG2E, LN2U, LN2L,
// Overflow and the Taylor coefficients) and of math's tanh (tanh.go: MAXLOG,
// tanhP, tanhQ), copied digit for digit so they round to the same float64s.
const (
	expLog2e    = 1.4426950408889634073599246810018920
	expLn2U     = 0.69314718055966295651160180568695068359375
	expLn2L     = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
	tanhMaxLog  = 8.8029691931113054295988e+01
)

// row64Consts is read by the kernels as embedded broadcasts, at the byte
// offsets #defined in fastmath64_amd64.s: float64s as their bits, integers
// as 64-bit lanes.
var row64Consts = [...]uint64{
	math.Float64bits(expLog2e),
	math.Float64bits(expLn2U),
	math.Float64bits(expLn2L),
	math.Float64bits(0.0625),
	math.Float64bits(2.4801587301587301587e-5),
	math.Float64bits(1.9841269841269841270e-4),
	math.Float64bits(1.3888888888888888889e-3),
	math.Float64bits(8.3333333333333333333e-3),
	math.Float64bits(4.1666666666666666667e-2),
	math.Float64bits(1.6666666666666666667e-1),
	math.Float64bits(0.5),
	math.Float64bits(1),
	math.Float64bits(2),
	0x3FF,   // exponent bias
	0x3FE,   // bias − 1: the denormal arm's first scale
	1 << 52, // 2⁻¹⁰²²: the denormal arm's second scale
	0,
	-52 & (1<<64 - 1), // biased exponents below −52 underflow to 0
	0x7FF,
	math.Float64bits(expOverflow),
	1<<63 - 1,          // |x| mask
	0x7FF0000000000000, // +Inf
	0xFFF0000000000000, // −Inf
	1 << 63,            // sign bit
	math.Float64bits(0.5 * tanhMaxLog),
	math.Float64bits(0.625),
	math.Float64bits(-9.64399179425052238628e-1),
	math.Float64bits(-9.92877231001918586564e1),
	math.Float64bits(-1.61468768441708447952e3),
	math.Float64bits(1.12811678491632931402e2),
	math.Float64bits(2.23548839060100448583e3),
	math.Float64bits(4.84406305325125486048e3),
}

// The row dispatchers run the whole row on the vector kernel and report
// true, or report false when the CPU lacks it (or ForceScalar is in effect).

func expRowAsm64(dst, src []float64) bool {
	if hasAVX512 && len(src) > 0 {
		expRow64AVX512(&dst[0], &src[0], len(src), &row64Consts[0])
	}
	return hasAVX512
}

func tanhRowAsm64(dst, src []float64) bool {
	if hasAVX512 && len(src) > 0 {
		tanhRow64AVX512(&dst[0], &src[0], len(src), &row64Consts[0])
	}
	return hasAVX512
}

func sigmoidRowAsm64(dst, src []float64) bool {
	if hasAVX512 && len(src) > 0 {
		sigmoidRow64AVX512(&dst[0], &src[0], len(src), &row64Consts[0])
	}
	return hasAVX512
}
