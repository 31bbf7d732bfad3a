package mat

import "math"

// Float64 row transcendentals for the float64 forwards and training: the
// softmax exponentials, the LSTM gate and cell activations and GELU's tanh.
// Their definition is the scalar code: math.Exp, math.Tanh and Sigmoid per
// element, which is also the pure-Go path. On AVX-512 machines a row runs on
// a vector kernel whose every lane repeats that code's IEEE operations in its
// order (fastmath64_amd64.s), so the result is the same bits on either
// dispatch path — TestRow64KernelsMatchMath and FuzzRow64Kernels pin it.
// dst may alias src.

// ExpRow writes math.Exp(x) for every element of src into dst.
func ExpRow(dst, src []float64) {
	checkLen(len(dst), len(src))
	if expRowAsm64(dst, src) {
		return
	}
	for i, x := range src {
		dst[i] = math.Exp(x)
	}
}

// TanhRow writes math.Tanh(x) for every element of src into dst.
func TanhRow(dst, src []float64) {
	checkLen(len(dst), len(src))
	if tanhRowAsm64(dst, src) {
		return
	}
	for i, x := range src {
		dst[i] = math.Tanh(x)
	}
}

// SigmoidRow writes Sigmoid(x) for every element of src into dst.
func SigmoidRow(dst, src []float64) {
	checkLen(len(dst), len(src))
	if sigmoidRowAsm64(dst, src) {
		return
	}
	for i, x := range src {
		dst[i] = Sigmoid(x)
	}
}

// Sigmoid returns 1/(1+e^-x) computed stably.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}
