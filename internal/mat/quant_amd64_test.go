package mat

import (
	"math/rand"
	"testing"
)

// TestInt8KernelPathsBitIdentical pins the cross-path contract: the VNNI
// kernel, the VPMADDWD kernel, and the scalar Go loop must fill identical
// int32 accumulators, and the activation quantizer and dequantization
// epilogue in front of and behind them must round identically in Go and on
// their vector twins — so the outputs are identical bits with hasAVX512,
// hasAVX512VNNI and hasAVX512BW each forced off. The test only ever
// downgrades the feature flags, never force-enables them.
func TestInt8KernelPathsBitIdentical(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512 on this machine; only the Go path exists")
	}
	savedVNNI, savedBW := hasAVX512VNNI, hasAVX512BW
	restore := func() { hasAVX512, hasAVX512VNNI, hasAVX512BW = true, savedVNNI, savedBW }
	defer restore()

	rng := rand.New(rand.NewSource(12))
	for _, sh := range quantKernelShapes {
		// Quantize with the real flags so the VNNI pack exists when it can.
		restore()
		wf := randMat(rng, sh.n, sh.k)
		w := QuantizeRows(wf)
		a := randMat32(rng, sh.m, sh.k)
		bias := make([]float32, sh.n)
		for j := range bias {
			bias[j] = float32(rng.NormFloat64())
		}
		run := func() (*Mat32, []uint8) {
			aq, scales := quantizeActivations(a)
			return mulInt8(sh.m, aq, scales, w, bias), aq
		}
		full, fullCodes := run()
		for _, off := range []struct {
			name string
			flag *bool
		}{{"hasAVX512VNNI", &hasAVX512VNNI}, {"hasAVX512BW", &hasAVX512BW}, {"hasAVX512", &hasAVX512}} {
			// Flags go off cumulatively: VNNI → madd kernel; +BW → scalar
			// accumulator; +AVX512 → Go quantizer and epilogue as well.
			*off.flag = false
			got, codes := run()
			requireBitEqual32(t, "int8 gemm with "+off.name+" off", full, got)
			if string(codes) != string(fullCodes) {
				t.Fatalf("%dx%d: activation codes differ with %s off", sh.m, sh.k, off.name)
			}
		}
	}
}
