//go:build !amd64

package mat

// Portable fallbacks: no VNNI weight copy, the scalar accumulator kernel,
// and the scalar float32 GEMM.

func useVNNI() bool { return false }

func int8GemvInto(acc []int32, arow []uint8, w *Int8Weights) {
	int8GemvGo(acc, arow, w.Data, w.KP)
}

func gemm32AsmInto(dst *Mat32, a []float32, lda int, b *Mat32) bool { return false }

func maxAbsBits(src []float32) uint32 { return maxAbsBitsGo(src) }

func quantCodes(dst []uint8, src []float32, inv float32) { quantCodesGo(dst, src, inv) }

func dequantRow(out []float32, acc, corr []int32, scales, bias []float32, sa float32) {
	dequantRowGo(out, acc, corr, scales, bias, sa)
}

func expRowAsm(dst, src []float32) bool { return false }

func tanhRowAsm(dst, src []float32) bool { return false }

func sigmoidRowAsm(dst, src []float32) bool { return false }

func geluRowAsm(dst, src []float32) bool { return false }

func softmaxColsAsm(data []float32, rows, n int, scale float32) bool { return false }

func normRowAsm(dst, src []float32, gain, bias []float64, mean, std float64) bool { return false }

func lstmRecurAsm(out *Mat32, dirs []LSTMDir32) bool { return false }

func transpose32Asm(dst, src *Mat32, col int) bool { return false }
