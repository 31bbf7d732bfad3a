//go:build amd64

package mat

import "math"

// The float32 row kernels' AVX-512 arms (fastmath32_amd64.s): whole rows,
// the last block under a k-mask, every lane repeating its Go twin's unfused
// float32 (NormRow32: float64) operations in order.

//go:noescape
func expRowAVX512(dst, src *float32, n int, consts *uint32)

//go:noescape
func tanhRowAVX512(dst, src *float32, n int, consts *uint32)

//go:noescape
func sigmoidRowAVX512(dst, src *float32, n int, consts *uint32)

//go:noescape
func geluRowAVX512(dst, src *float32, n int, consts *uint32)

//go:noescape
func softmaxColsAVX512(data *float32, rows, n int, scale float32, work *float32, wstride int, consts *uint32)

//go:noescape
func normRowAVX512(dst, src *float32, gain, bias *float64, n int, mean, std float64)

// row32Consts is read by the kernels as embedded broadcasts, at the byte
// offsets #defined in fastmath32_amd64.s: the Go twins' constants as
// float32 bits, so both forms read the same values.
var row32Consts = [...]uint32{
	math.Float32bits(expHi),
	math.Float32bits(expLo),
	math.Float32bits(log2e),
	math.Float32bits(0.5),
	math.Float32bits(ln2Hi),
	math.Float32bits(ln2Lo),
	math.Float32bits(expP0),
	math.Float32bits(expP1),
	math.Float32bits(expP2),
	math.Float32bits(expP3),
	math.Float32bits(expP4),
	math.Float32bits(expP5),
	math.Float32bits(1),
	0x7f800000, // +Inf
	math.Float32bits(tanhClamp),
	math.Float32bits(-tanhClamp),
	math.Float32bits(tanhA0),
	math.Float32bits(tanhA1),
	math.Float32bits(tanhA2),
	math.Float32bits(tanhA3),
	math.Float32bits(tanhA4),
	math.Float32bits(tanhA5),
	math.Float32bits(tanhA6),
	math.Float32bits(tanhB0),
	math.Float32bits(tanhB1),
	math.Float32bits(tanhB2),
	math.Float32bits(tanhB3),
	1 << 31, // sign bit
	math.Float32bits(geluC),
	math.Float32bits(geluK),
}

// The dispatchers run the whole row on the vector kernel and report true,
// or report false when the CPU lacks it (or ForceScalar is in effect).

func expRowAsm(dst, src []float32) bool {
	if hasAVX512 && len(src) > 0 {
		expRowAVX512(&dst[0], &src[0], len(src), &row32Consts[0])
	}
	return hasAVX512
}

func tanhRowAsm(dst, src []float32) bool {
	if hasAVX512 && len(src) > 0 {
		tanhRowAVX512(&dst[0], &src[0], len(src), &row32Consts[0])
	}
	return hasAVX512
}

func sigmoidRowAsm(dst, src []float32) bool {
	if hasAVX512 && len(src) > 0 {
		sigmoidRowAVX512(&dst[0], &src[0], len(src), &row32Consts[0])
	}
	return hasAVX512
}

func geluRowAsm(dst, src []float32) bool {
	if hasAVX512 && len(src) > 0 {
		geluRowAVX512(&dst[0], &src[0], len(src), &row32Consts[0])
	}
	return hasAVX512
}

// softmaxColsAsm runs SoftmaxCols32 over a non-empty rows×n matrix. A
// matrix narrower than one 16-lane block and at most 16 rows tall (an
// attention head of under 16 tokens) is staged through 64-byte row slots on
// the stack, so no row's masked store overlaps the next row's load.
func softmaxColsAsm(data []float32, rows, n int, scale float32) bool {
	if !hasAVX512 {
		return false
	}
	if n < 16 && rows <= 16 {
		var slots [16 * 16]float32
		softmaxColsAVX512(&data[0], rows, n, scale, &slots[0], 64, &row32Consts[0])
	} else {
		softmaxColsAVX512(&data[0], rows, n, scale, &data[0], 4*n, &row32Consts[0])
	}
	return true
}

func normRowAsm(dst, src []float32, gain, bias []float64, mean, std float64) bool {
	if hasAVX512 && len(src) > 0 {
		normRowAVX512(&dst[0], &src[0], &gain[0], &bias[0], len(src), mean, std)
	}
	return hasAVX512
}
