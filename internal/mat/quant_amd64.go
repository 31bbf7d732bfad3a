//go:build amd64

package mat

// AVX-512 fast paths for the quantized kernel family (quant_amd64.s).
//
// Integer path: all int8 kernels fill the identical int32 accumulator — the
// raw offset-binary dot Σ u8(a)·s8(w) — because integer addition is
// associative, so the VNNI dword groups, the VPMADDWD word pairs, and the
// scalar loop can reduce in any order and still agree bit for bit. The
// shared dequantization then happens once, in Go.
//
// Float32 path: the f32saxpy kernels follow gemm_amd64.s exactly — lanes
// span output columns, one unfused VMULPS + VADDPS per k in ascending k
// order — so MatMulF32Into's vector path rounds identically to its scalar
// fallback. No FMA anywhere. The 16-column kernels take a lane mask, so the
// last partial column block runs masked and any N ≥ 1 stays on the vector
// path; so do the quantizer's and the epilogue's row kernels, whose last
// block of a row is masked too.

//go:noescape
func int8DotVNNI(acc *int32, a *uint8, packed *int8, groups, blocks int)

//go:noescape
func int8GemvMadd(acc *int32, a *uint8, w *int8, kp, rows int)

//go:noescape
func f32saxpy2x32(k int, a0, a1, bp, d0, d1 *float32, bstride int)

//go:noescape
func f32saxpy1x32(k int, a0, bp, d0 *float32, bstride int)

//go:noescape
func f32saxpy2x16(k int, a0, a1, bp, d0, d1 *float32, bstride, mask int)

//go:noescape
func f32saxpy1x16(k int, a0, bp, d0 *float32, bstride, mask int)

// hasAVX512VNNI / hasAVX512BW gate the two int8 vector kernels. Tests flip
// them (and hasAVX512) to force every downgrade path and compare results.
var (
	hasAVX512VNNI = hasAVX512 && cpuidFeature(7, 0, regECX, 11) // AVX512_VNNI
	hasAVX512BW   = hasAVX512 && cpuidFeature(7, 0, regEBX, 30) // AVX512BW
)

type cpuidReg int

const (
	regEBX cpuidReg = iota
	regECX
)

func cpuidFeature(leaf, sub uint32, reg cpuidReg, bit uint) bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < leaf {
		return false
	}
	_, b, c, _ := cpuid(leaf, sub)
	switch reg {
	case regEBX:
		return b&(1<<bit) != 0
	default:
		return c&(1<<bit) != 0
	}
}

// useVNNI reports whether QuantizeRows should build the VNNI-interleaved
// weight copy.
func useVNNI() bool { return hasAVX512VNNI }

// int8GemvInto fills acc[0:w.Rows] with the offset-binary dot of one
// activation row against every weight row, picking the fastest kernel the
// CPU supports. The VNNI path covers full 16-row blocks via the interleaved
// copy; its row tail and the no-VNNI path run on the row-major VPMADDWD
// kernel, and pre-AVX-512 machines take the scalar loop. All paths produce
// the same int32 bits.
func int8GemvInto(acc []int32, arow []uint8, w *Int8Weights) {
	switch {
	case hasAVX512VNNI && w.vnni != nil:
		full := w.vnniBlocks * 16
		int8DotVNNI(&acc[0], &arow[0], &w.vnni[0], w.KP/4, w.vnniBlocks)
		if tail := w.Rows - full; tail > 0 {
			if hasAVX512BW {
				int8GemvMadd(&acc[full], &arow[0], &w.Data[full*w.KP], w.KP, tail)
			} else {
				int8GemvGo(acc[full:], arow, w.Data[full*w.KP:], w.KP)
			}
		}
	case hasAVX512BW:
		int8GemvMadd(&acc[0], &arow[0], &w.Data[0], w.KP, w.Rows)
	default:
		int8GemvGo(acc, arow, w.Data, w.KP)
	}
}

// gemm32AsmInto computes dst = a·b with the float32 AVX-512 microkernels and
// returns true, or returns false with dst untouched when the CPU lacks
// AVX-512 or the shape is degenerate (empty k). Row i of a starts at
// a[i*lda]; the kernels take one pointer per A row, so a may be a column
// block of a wider matrix. Column tiles go 32-wide, then 16-wide with the
// last one masked to the columns left; rows go in pairs with a single-row
// remainder — the float32 twin of gemmAsmInto.
func gemm32AsmInto(dst *Mat32, a []float32, lda int, b *Mat32) bool {
	n := b.Cols
	k := b.Rows
	if !hasAVX512 || n == 0 || k == 0 || dst.Rows == 0 {
		return false
	}
	bstride := n * 4 // bytes per packed B row
	n32 := n &^ 31
	i := 0
	for ; i+2 <= dst.Rows; i += 2 {
		a0 := a[i*lda : i*lda+k]
		a1 := a[(i+1)*lda : (i+1)*lda+k]
		d0 := dst.Data[i*n : (i+1)*n]
		d1 := dst.Data[(i+1)*n : (i+2)*n]
		for j := 0; j < n32; j += 32 {
			f32saxpy2x32(k, &a0[0], &a1[0], &b.Data[j], &d0[j], &d1[j], bstride)
		}
		for j := n32; j < n; j += 16 {
			f32saxpy2x16(k, &a0[0], &a1[0], &b.Data[j], &d0[j], &d1[j], bstride, laneMask(n-j))
		}
	}
	if i < dst.Rows {
		a0 := a[i*lda : i*lda+k]
		d0 := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n32; j += 32 {
			f32saxpy1x32(k, &a0[0], &b.Data[j], &d0[j], bstride)
		}
		for j := n32; j < n; j += 16 {
			f32saxpy1x16(k, &a0[0], &b.Data[j], &d0[j], bstride, laneMask(n-j))
		}
	}
	return true
}

// laneMask selects the first min(left, 16) float32 lanes of a zmm.
func laneMask(left int) int {
	if left >= 16 {
		return 0xFFFF
	}
	return 1<<left - 1
}

//go:noescape
func maxAbsAVX512(lanes *uint32, src *float32, n int)

//go:noescape
func quantCodesAVX512(dst *uint8, src *float32, n int, consts *uint32, inv float32)

//go:noescape
func dequantRowAVX512(out *float32, acc, corr *int32, scales, bias *float32, n int, sa float32)

// quantConsts is read by quantCodesAVX512 as embedded broadcasts: magic =
// 1.5·2²³ as bits, magic+127, magic-127, and the +128 offset.
var quantConsts = [...]uint32{0x4B400000, 0x4B400000 + 127, 0x4B400000 - 127, 128}

// The row dispatchers below run the whole row on the vector kernel where the
// CPU has AVX-512, and the Go twin otherwise.

func maxAbsBits(src []float32) uint32 {
	if !hasAVX512 || len(src) == 0 {
		return maxAbsBitsGo(src)
	}
	var lanes [16]uint32
	maxAbsAVX512(&lanes[0], &src[0], len(src))
	var m uint32
	for _, v := range lanes {
		m = max(m, v)
	}
	return m
}

func quantCodes(dst []uint8, src []float32, inv float32) {
	if !hasAVX512 || len(src) == 0 {
		quantCodesGo(dst, src, inv)
		return
	}
	quantCodesAVX512(&dst[0], &src[0], len(src), &quantConsts[0], inv)
}

func dequantRow(out []float32, acc, corr []int32, scales, bias []float32, sa float32) {
	if !hasAVX512 || len(out) == 0 {
		dequantRowGo(out, acc, corr, scales, bias, sa)
		return
	}
	dequantRowAVX512(&out[0], &acc[0], &corr[0], &scales[0], &bias[0], len(out), sa)
}

//go:noescape
func transpose32AVX512(dst *float32, dstride int, src *float32, sstride int, rows, cols int)

// transpose32Asm runs Transpose32 (a non-empty block) on the vector kernel.
func transpose32Asm(dst, src *Mat32, col int) bool {
	if hasAVX512 {
		transpose32AVX512(&dst.Data[0], 4*dst.Cols, &src.Data[col], 4*src.Cols, src.Rows, dst.Rows)
	}
	return hasAVX512
}
