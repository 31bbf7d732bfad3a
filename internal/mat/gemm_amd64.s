// AVX-512 GEMM microkernels for MatMulInto's and MatMulAddInto's fast path,
// plus the element-wise AddRows, Mat.Scale and AdamStep kernels. See
// gemm_amd64.go for the exactness argument: lanes span output columns, each
// lane performs one unfused VMULPD + VADDPD per k in ascending k order, so
// every output element rounds exactly like the scalar kernels. No FMA
// anywhere — fusing would change the rounding and break bit-identity with
// the serial path.

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func saxpy2x32(k int, a0, a1, bp, d0, d1 *float64, bstride, load int)
//
// Computes a 2-row × 32-column tile of dst = A·B with B packed row-major
// (K×N): d0[0:32] = Σ_k a0[k]·bp[k*N+0:32], d1 likewise for a1. bstride is
// the byte stride of one packed B row (N*8). Eight zmm accumulators, each
// owning 8 output columns of one row; per k iteration every accumulator
// receives exactly one unfused multiply-add, so each output element sums
// its products in ascending k order — bit-identical to the scalar loop.
// With load != 0 the accumulators start from the d0/d1 tile (dst += A·B)
// instead of +0.
TEXT ·saxpy2x32(SB), NOSPLIT, $0-64
	MOVQ k+0(FP), CX
	MOVQ a0+8(FP), SI
	MOVQ a1+16(FP), DI
	MOVQ bp+24(FP), BX
	MOVQ d0+32(FP), R8
	MOVQ d1+40(FP), R9
	MOVQ bstride+48(FP), DX
	MOVQ load+56(FP), AX
	TESTQ AX, AX
	JNZ  load2x32
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP  loop2x32

load2x32:
	VMOVUPD (R8), Z0
	VMOVUPD 64(R8), Z1
	VMOVUPD 128(R8), Z2
	VMOVUPD 192(R8), Z3
	VMOVUPD (R9), Z4
	VMOVUPD 64(R9), Z5
	VMOVUPD 128(R9), Z6
	VMOVUPD 192(R9), Z7

loop2x32:
	VBROADCASTSD (SI), Z8
	VBROADCASTSD (DI), Z9
	VMOVUPD (BX), Z10
	VMOVUPD 64(BX), Z11
	VMOVUPD 128(BX), Z12
	VMOVUPD 192(BX), Z13
	VMULPD Z10, Z8, Z14
	VADDPD Z14, Z0, Z0
	VMULPD Z11, Z8, Z15
	VADDPD Z15, Z1, Z1
	VMULPD Z12, Z8, Z16
	VADDPD Z16, Z2, Z2
	VMULPD Z13, Z8, Z17
	VADDPD Z17, Z3, Z3
	VMULPD Z10, Z9, Z18
	VADDPD Z18, Z4, Z4
	VMULPD Z11, Z9, Z19
	VADDPD Z19, Z5, Z5
	VMULPD Z12, Z9, Z20
	VADDPD Z20, Z6, Z6
	VMULPD Z13, Z9, Z21
	VADDPD Z21, Z7, Z7
	ADDQ $8, SI
	ADDQ $8, DI
	ADDQ DX, BX
	DECQ CX
	JNZ  loop2x32

	VMOVUPD Z0, (R8)
	VMOVUPD Z1, 64(R8)
	VMOVUPD Z2, 128(R8)
	VMOVUPD Z3, 192(R8)
	VMOVUPD Z4, (R9)
	VMOVUPD Z5, 64(R9)
	VMOVUPD Z6, 128(R9)
	VMOVUPD Z7, 192(R9)
	VZEROUPPER
	RET

// func saxpy1x32(k int, a0, bp, d0 *float64, bstride, load int)
//
// Single-row remainder of saxpy2x32: a 1×32 tile with four accumulators,
// loaded from d0 when load != 0.
TEXT ·saxpy1x32(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ a0+8(FP), SI
	MOVQ bp+16(FP), BX
	MOVQ d0+24(FP), R8
	MOVQ bstride+32(FP), DX
	MOVQ load+40(FP), AX
	TESTQ AX, AX
	JNZ  load1x32
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	JMP  loop1x32

load1x32:
	VMOVUPD (R8), Z0
	VMOVUPD 64(R8), Z1
	VMOVUPD 128(R8), Z2
	VMOVUPD 192(R8), Z3

loop1x32:
	VBROADCASTSD (SI), Z8
	VMOVUPD (BX), Z10
	VMOVUPD 64(BX), Z11
	VMOVUPD 128(BX), Z12
	VMOVUPD 192(BX), Z13
	VMULPD Z10, Z8, Z14
	VADDPD Z14, Z0, Z0
	VMULPD Z11, Z8, Z15
	VADDPD Z15, Z1, Z1
	VMULPD Z12, Z8, Z16
	VADDPD Z16, Z2, Z2
	VMULPD Z13, Z8, Z17
	VADDPD Z17, Z3, Z3
	ADDQ $8, SI
	ADDQ DX, BX
	DECQ CX
	JNZ  loop1x32

	VMOVUPD Z0, (R8)
	VMOVUPD Z1, 64(R8)
	VMOVUPD Z2, 128(R8)
	VMOVUPD Z3, 192(R8)
	VZEROUPPER
	RET

// func vadd8n(dst, src *float64, n8 int)
// dst[i] += src[i] for i in [0, 8*n8). Element-wise: one add per element, so
// lane width cannot reorder any sum — bit-identical to the scalar loop.
TEXT ·vadd8n(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n8+16(FP), CX
	TESTQ CX, CX
	JZ vadd_done
vadd_loop:
	VMOVUPD (DI), Z0
	VADDPD (SI), Z0, Z0
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	DECQ CX
	JNZ vadd_loop
	VZEROUPPER
vadd_done:
	RET

// func vscale8n(dst *float64, s float64, n8 int)
// dst[i] *= s for i in [0, 8*n8). Element-wise: one multiply per element,
// bit-identical to the scalar loop.
TEXT ·vscale8n(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ n8+16(FP), CX
	TESTQ CX, CX
	JZ vscale_done
	VBROADCASTSD s+8(FP), Z1
vscale_loop:
	VMULPD (DI), Z1, Z0
	VMOVUPD Z0, (DI)
	ADDQ $64, DI
	DECQ CX
	JNZ vscale_loop
	VZEROUPPER
vscale_done:
	RET

// func adam8n(w, grad, m, v *float64, n8 int, c *AdamCoeffs)
//
// One Adam update of 8*n8 elements, eight lanes at a time. Each lane runs
// adamStepGo's per-element operations in the same order, each one unfused
// and correctly rounded (VMULPD, VADDPD, VDIVPD, VSQRTPD, VSUBPD), so every
// W, m and v element is bit-identical to the scalar loop:
//
//	m = β1·m + (1−β1)·g
//	v = β2·v + ((1−β2)·g)·g
//	w = w − (lr·(m/bc1)) / (sqrt(v/bc2) + eps)
//
// c points at AdamCoeffs: β1, 1−β1, β2, 1−β2, bc1, bc2, lr, eps.
TEXT ·adam8n(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n8+32(FP), CX
	MOVQ c+40(FP), AX
	TESTQ CX, CX
	JZ adam_done
	VBROADCASTSD 0(AX), Z16
	VBROADCASTSD 8(AX), Z17
	VBROADCASTSD 16(AX), Z18
	VBROADCASTSD 24(AX), Z19
	VBROADCASTSD 32(AX), Z20
	VBROADCASTSD 40(AX), Z21
	VBROADCASTSD 48(AX), Z22
	VBROADCASTSD 56(AX), Z23
adam_loop:
	VMOVUPD (SI), Z0
	VMULPD (R8), Z16, Z1
	VMULPD Z0, Z17, Z2
	VADDPD Z2, Z1, Z1
	VMOVUPD Z1, (R8)
	VMULPD (R9), Z18, Z3
	VMULPD Z0, Z19, Z4
	VMULPD Z0, Z4, Z4
	VADDPD Z4, Z3, Z3
	VMOVUPD Z3, (R9)
	VDIVPD Z20, Z1, Z5
	VDIVPD Z21, Z3, Z6
	VSQRTPD Z6, Z6
	VADDPD Z23, Z6, Z6
	VMULPD Z5, Z22, Z5
	VDIVPD Z6, Z5, Z5
	VMOVUPD (DI), Z7
	VSUBPD Z5, Z7, Z7
	VMOVUPD Z7, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, R8
	ADDQ $64, R9
	DECQ CX
	JNZ adam_loop
	VZEROUPPER
adam_done:
	RET
