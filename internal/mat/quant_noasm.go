//go:build !amd64

package mat

// Portable fallbacks: no VNNI weight copy, the scalar accumulator kernel,
// and the scalar float32 GEMM.

func useVNNI() bool { return false }

func int8GemvInto(acc []int32, arow []uint8, w *Int8Weights) {
	int8GemvGo(acc, arow, w.Data, w.KP)
}

func gemm32AsmInto(dst, a, b *Mat32) bool { return false }

func maxAbsBits(src []float32) uint32 { return maxAbsBitsGo(src) }

func quantCodes(dst []uint8, src []float32, inv float32) { quantCodesGo(dst, src, inv) }

func dequantRow(out []float32, acc, corr []int32, scales, bias []float32, sa float32) {
	dequantRowGo(out, acc, corr, scales, bias, sa)
}

func expRowAsm(dst, src []float32) int { return 0 }

func tanhRowAsm(dst, src []float32) int { return 0 }
