//go:build amd64

package mat

// AVX-512 fast path for MatMulInto.
//
// The microkernels in gemm_amd64.s vectorize across *output columns*: one zmm
// lane owns one output element, and per k step each lane executes exactly one
// unfused VMULPD followed by one VADDPD, with k ascending. That is the same
// rounding sequence as the scalar kernels — a float64 multiply and add round
// identically whether they sit in a scalar register or a vector lane — so the
// vector path is bit-identical to MulVec and the naive triple loop. FMA would
// be faster still but fuses the multiply-add into a single rounding, which
// would break that identity; it is deliberately not used.
//
// The k dimension is never split across lanes or accumulators: splitting k
// would reassociate the (non-associative) float sum.

//go:noescape
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

//go:noescape
func saxpy2x32(k int, a0, a1, bp, d0, d1 *float64, bstride int)

//go:noescape
func saxpy1x32(k int, a0, bp, d0 *float64, bstride int)

// hasAVX512 reports whether the CPU and OS support the zmm registers the
// microkernels use. Tests may flip it to force the scalar path.
var hasAVX512 = detectAVX512()

func detectAVX512() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const osxsaveBit = 1 << 27
	if c1&osxsaveBit == 0 {
		return false
	}
	// XCR0 must enable XMM (bit 1), YMM (bit 2), and the AVX-512 state
	// triple: opmask (5), zmm0-15 upper halves (6), zmm16-31 (7).
	xlo, _ := xgetbv0()
	const xcr0Needed = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if xlo&xcr0Needed != xcr0Needed {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const avx512fBit = 1 << 16
	return b7&avx512fBit != 0
}

// gemmAsmInto computes dst = a·b with the AVX-512 microkernels and returns
// true, or returns false with dst untouched when the CPU lacks AVX-512 or the
// shape is degenerate (under one 32-column tile, empty k). Column tiles go
// 32-wide, then a scalar tail the inference forwards never reach (their
// float64 GEMMs have 64 or 128 columns); rows go in pairs with a single-row
// remainder. Every tile fully overwrites its output elements, so no prior
// zeroing of dst is needed on this path.
func gemmAsmInto(dst, a, b *Mat) bool {
	n := b.Cols
	k := a.Cols
	if !hasAVX512 || n < 32 || k == 0 || a.Rows == 0 {
		return false
	}
	bstride := n * 8 // bytes per packed B row
	n32 := n &^ 31
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		a0 := a.Data[i*k : (i+1)*k]
		a1 := a.Data[(i+1)*k : (i+2)*k]
		d0 := dst.Data[i*n : (i+1)*n]
		d1 := dst.Data[(i+1)*n : (i+2)*n]
		for j := 0; j < n32; j += 32 {
			saxpy2x32(k, &a0[0], &a1[0], &b.Data[j], &d0[j], &d1[j], bstride)
		}
		for j := n32; j < n; j++ {
			var s0, s1 float64
			for kk := 0; kk < k; kk++ {
				bv := b.Data[kk*n+j]
				s0 += a0[kk] * bv
				s1 += a1[kk] * bv
			}
			d0[j], d1[j] = s0, s1
		}
	}
	if i < a.Rows {
		a0 := a.Data[i*k : (i+1)*k]
		d0 := dst.Data[i*n : (i+1)*n]
		for j := 0; j < n32; j += 32 {
			saxpy1x32(k, &a0[0], &b.Data[j], &d0[j], bstride)
		}
		for j := n32; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += a0[kk] * b.Data[kk*n+j]
			}
			d0[j] = s
		}
	}
	return true
}

//go:noescape
func vadd8n(dst, src *float64, n8 int)

// addVecFast is the amd64 element-wise add: the AVX-512 kernel covers the
// 8-wide body and the scalar tail finishes. Per element it performs exactly
// one addition, identical to Vec.Add.
func addVecFast(dst, src Vec) {
	n := len(dst)
	if !hasAVX512 || n < 8 {
		dst.Add(src)
		return
	}
	n8 := n >> 3
	vadd8n(&dst[0], &src[0], n8)
	for i := n8 << 3; i < n; i++ {
		dst[i] += src[i]
	}
}
