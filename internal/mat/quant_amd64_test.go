package mat

import (
	"math"
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

// TestQuantRowKernelsEveryLength runs the activation quantizer and the
// dequantization epilogue at every row length 1..64 and at the decode's
// widths on both paths: the vector twins, which take the whole row with
// its last block masked, must reproduce the Go loops bit for bit and write
// nothing past the row.
func TestQuantRowKernelsEveryLength(t *testing.T) {
	if !hasAVX512 {
		t.Skip("no AVX-512 on this machine; only the Go path exists")
	}
	defer func() { hasAVX512 = true }()
	rng := rand.New(rand.NewSource(13))
	for _, n := range rowKernelWidths[1:] {
		src := rowKernelInputs(rng, n)
		codes := [2][]uint8{make([]uint8, padK(n)), make([]uint8, padK(n))}
		var scales [2]float32
		out := [2][]float32{rowWithGuard(n), rowWithGuard(n)}
		acc, corr := make([]int32, n), make([]int32, n)
		ws, bias := make([]float32, n), make([]float32, n)
		for i := range acc {
			acc[i], corr[i] = rng.Int31n(1<<20)-1<<19, rng.Int31n(1<<16)-1<<15
			ws[i], bias[i] = rng.Float32()*0.01, float32(rng.NormFloat64())
		}
		for p, vec := range []bool{true, false} {
			hasAVX512 = vec
			scales[p] = QuantizeRowU8(codes[p], src)
			dequantRow(out[p], acc, corr, ws, bias, 0.0173)
		}
		if scales[0] != scales[1] || string(codes[0]) != string(codes[1]) {
			t.Fatalf("width %d: quantizer scale %v codes %v on AVX-512, scale %v codes %v in Go",
				n, scales[0], codes[0], scales[1], codes[1])
		}
		checkGuard32(t, "dequantRow", out[0])
		for i := range out[0] {
			if math.Float32bits(out[0][i]) != math.Float32bits(out[1][i]) {
				t.Fatalf("width %d: dequantRow[%d] = %v on AVX-512, %v in Go", n, i, out[0][i], out[1][i])
			}
		}
	}
}
