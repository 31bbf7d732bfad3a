//go:build amd64

#include "textflag.h"

// AVX-512 kernels for the quantized / float32 inference tier.
//
// Integer kernels fill the raw offset-binary accumulator Σ u8(a)·s8(w) —
// integer addition is associative, so any lane grouping produces the same
// int32 bits as the scalar Go loop. Float32 kernels use one unfused
// VMULPS + VADDPS per product in ascending k order, matching the scalar
// fallback's rounding exactly (same contract as the float64 kernels in
// gemm_amd64.s).

// func int8DotVNNI(acc *int32, a *uint8, packed *int8, groups, blocks int)
//
// One 16-row VNNI block per iteration of the outer loop: the block's
// accumulator lives in 4 zmm registers (one per unrolled k-group) whose
// dword lanes are the 16 output rows. Each k-group broadcasts 4 activation
// bytes to every lane and VPDPBUSD multiplies them against the interleaved
// 64-byte weight group. groups is KP/4 (a multiple of 16, so the 4-group
// unroll is always exact; the single-group tail is kept for safety).
TEXT ·int8DotVNNI(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ packed+16(FP), DX
	MOVQ groups+24(FP), CX
	MOVQ blocks+32(FP), BX

vnni_block:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	MOVQ   SI, R8 // activation cursor restarts every block
	MOVQ   CX, R9

vnni_g4:
	CMPQ          R9, $4
	JL            vnni_g1
	VPBROADCASTD  (R8), Z1
	VMOVDQU32     (DX), Z2
	VPDPBUSD      Z2, Z1, Z0
	VPBROADCASTD  4(R8), Z6
	VMOVDQU32     64(DX), Z7
	VPDPBUSD      Z7, Z6, Z3
	VPBROADCASTD  8(R8), Z8
	VMOVDQU32     128(DX), Z9
	VPDPBUSD      Z9, Z8, Z4
	VPBROADCASTD  12(R8), Z10
	VMOVDQU32     192(DX), Z11
	VPDPBUSD      Z11, Z10, Z5
	ADDQ          $16, R8
	ADDQ          $256, DX
	SUBQ          $4, R9
	JMP           vnni_g4

vnni_g1:
	TESTQ         R9, R9
	JZ            vnni_reduce
	VPBROADCASTD  (R8), Z1
	VMOVDQU32     (DX), Z2
	VPDPBUSD      Z2, Z1, Z0
	ADDQ          $4, R8
	ADDQ          $64, DX
	DECQ          R9
	JMP           vnni_g1

vnni_reduce:
	VPADDD    Z3, Z0, Z0
	VPADDD    Z5, Z4, Z4
	VPADDD    Z4, Z0, Z0
	VMOVDQU32 Z0, (DI)
	ADDQ      $64, DI
	DECQ      BX
	JNZ       vnni_block
	VZEROUPPER
	RET

// func int8GemvMadd(acc *int32, a *uint8, w *int8, kp, rows int)
//
// Row-major fallback for CPUs without VNNI (and for the Rows%16 tail of the
// VNNI path). Per output row, each 64-byte k-chunk widens 32 activation
// bytes (zero-extended) and 32 weight bytes (sign-extended) to words and
// VPMADDWD-accumulates pairwise products into 16 dword lanes; products are
// at most 255·127 so the i16 madd cannot saturate. The 16 lanes reduce
// horizontally to one int32 per row.
TEXT ·int8GemvMadd(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ w+16(FP), DX
	MOVQ kp+24(FP), CX
	MOVQ rows+32(FP), BX
	SHRQ $6, CX // 64-byte chunks per row

madd_row:
	VPXORQ Z0, Z0, Z0
	MOVQ   SI, R8
	MOVQ   CX, R9

madd_chunk:
	VPMOVZXBW (R8), Z1
	VPMOVSXBW (DX), Z2
	VPMADDWD  Z2, Z1, Z3
	VPADDD    Z3, Z0, Z0
	VPMOVZXBW 32(R8), Z4
	VPMOVSXBW 32(DX), Z5
	VPMADDWD  Z5, Z4, Z6
	VPADDD    Z6, Z0, Z0
	ADDQ      $64, R8
	ADDQ      $64, DX
	DECQ      R9
	JNZ       madd_chunk

	VEXTRACTI64X4 $1, Z0, Y1
	VPADDD        Y1, Y0, Y0
	VEXTRACTI128  $1, Y0, X1
	VPADDD        X1, X0, X0
	VPSHUFD       $0x4E, X0, X1
	VPADDD        X1, X0, X0
	VPSHUFD       $0xB1, X0, X1
	VPADDD        X1, X0, X0
	VMOVD         X0, AX
	MOVL          AX, (DI)
	ADDQ          $4, DI
	DECQ          BX
	JNZ           madd_row
	VZEROUPPER
	RET

// func f32saxpy2x32(k int, a0, a1, bp, d0, d1 *float32, bstride int)
//
// Two A rows × 32 output columns (2 zmm per row). For each k: broadcast one
// scalar from each A row, load 32 packed B values, and do an unfused
// multiply + add per accumulator — ascending k, exactly the scalar order.
TEXT ·f32saxpy2x32(SB), NOSPLIT, $0-56
	MOVQ   k+0(FP), CX
	MOVQ   a0+8(FP), SI
	MOVQ   a1+16(FP), DI
	MOVQ   bp+24(FP), BX
	MOVQ   d0+32(FP), R8
	MOVQ   d1+40(FP), R9
	MOVQ   bstride+48(FP), DX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

f32s2x32_loop:
	VBROADCASTSS (SI), Z4
	VBROADCASTSS (DI), Z5
	VMOVUPS      (BX), Z6
	VMOVUPS      64(BX), Z7
	VMULPS       Z6, Z4, Z8
	VADDPS       Z8, Z0, Z0
	VMULPS       Z7, Z4, Z9
	VADDPS       Z9, Z1, Z1
	VMULPS       Z6, Z5, Z10
	VADDPS       Z10, Z2, Z2
	VMULPS       Z7, Z5, Z11
	VADDPS       Z11, Z3, Z3
	ADDQ         $4, SI
	ADDQ         $4, DI
	ADDQ         DX, BX
	DECQ         CX
	JNZ          f32s2x32_loop

	VMOVUPS Z0, (R8)
	VMOVUPS Z1, 64(R8)
	VMOVUPS Z2, (R9)
	VMOVUPS Z3, 64(R9)
	VZEROUPPER
	RET

// func f32saxpy1x32(k int, a0, bp, d0 *float32, bstride int)
TEXT ·f32saxpy1x32(SB), NOSPLIT, $0-40
	MOVQ   k+0(FP), CX
	MOVQ   a0+8(FP), SI
	MOVQ   bp+16(FP), BX
	MOVQ   d0+24(FP), R8
	MOVQ   bstride+32(FP), DX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1

f32s1x32_loop:
	VBROADCASTSS (SI), Z4
	VMOVUPS      (BX), Z6
	VMOVUPS      64(BX), Z7
	VMULPS       Z6, Z4, Z8
	VADDPS       Z8, Z0, Z0
	VMULPS       Z7, Z4, Z9
	VADDPS       Z9, Z1, Z1
	ADDQ         $4, SI
	ADDQ         DX, BX
	DECQ         CX
	JNZ          f32s1x32_loop

	VMOVUPS Z0, (R8)
	VMOVUPS Z1, 64(R8)
	VZEROUPPER
	RET

// func f32saxpy2x16(k int, a0, a1, bp, d0, d1 *float32, bstride, mask int)
//
// Two A rows × the 16-column block's live columns (mask's set bits): B is
// read and dst written under the mask, so the last partial block of any N
// runs here with masked-off lanes neither loaded nor stored.
TEXT ·f32saxpy2x16(SB), NOSPLIT, $0-64
	MOVQ   k+0(FP), CX
	MOVQ   a0+8(FP), SI
	MOVQ   a1+16(FP), DI
	MOVQ   bp+24(FP), BX
	MOVQ   d0+32(FP), R8
	MOVQ   d1+40(FP), R9
	MOVQ   bstride+48(FP), DX
	MOVQ   mask+56(FP), AX
	KMOVW  AX, K1
	VPXORQ Z0, Z0, Z0
	VPXORQ Z2, Z2, Z2

f32s2x16_loop:
	VBROADCASTSS (SI), Z4
	VBROADCASTSS (DI), Z5
	VMOVUPS.Z    (BX), K1, Z6
	VMULPS       Z6, Z4, Z8
	VADDPS       Z8, Z0, Z0
	VMULPS       Z6, Z5, Z10
	VADDPS       Z10, Z2, Z2
	ADDQ         $4, SI
	ADDQ         $4, DI
	ADDQ         DX, BX
	DECQ         CX
	JNZ          f32s2x16_loop

	VMOVUPS Z0, K1, (R8)
	VMOVUPS Z2, K1, (R9)
	VZEROUPPER
	RET

// func f32saxpy1x16(k int, a0, bp, d0 *float32, bstride, mask int)
TEXT ·f32saxpy1x16(SB), NOSPLIT, $0-48
	MOVQ   k+0(FP), CX
	MOVQ   a0+8(FP), SI
	MOVQ   bp+16(FP), BX
	MOVQ   d0+24(FP), R8
	MOVQ   bstride+32(FP), DX
	MOVQ   mask+40(FP), AX
	KMOVW  AX, K1
	VPXORQ Z0, Z0, Z0

f32s1x16_loop:
	VBROADCASTSS (SI), Z4
	VMOVUPS.Z    (BX), K1, Z6
	VMULPS       Z6, Z4, Z8
	VADDPS       Z8, Z0, Z0
	ADDQ         $4, SI
	ADDQ         DX, BX
	DECQ         CX
	JNZ          f32s1x16_loop

	VMOVUPS Z0, K1, (R8)
	VZEROUPPER
	RET

// Row kernels around the int8 GEMM, 16 float32 lanes per iteration over a
// row of any positive length n. Full blocks load and store whole vectors;
// the last partial block runs the same body under K7, the tail's n mod 16
// lanes (masked loads and stores). Each lane performs exactly the Go twin's
// operations in its order, so the two are bit-identical.

#define TAIL_MASK MOVL $1, AX; SHLL CX, AX; DECL AX; KMOVW AX, K7

// func maxAbsAVX512(lanes *uint32, src *float32, n int)
//
// Per-lane max of |v| over the row, NaN skipped: VMAXPS returns its second
// source — the running max — whenever the new value is NaN. Masked-off
// lanes load +0, which cannot raise a max that starts at +0. The caller
// reduces the 16 lanes.
TEXT ·maxAbsAVX512(SB), NOSPLIT, $0-24
	MOVQ       lanes+0(FP), DI
	MOVQ       src+8(FP), SI
	MOVQ       n+16(FP), CX
	VPXORQ     Z0, Z0, Z0
	VPTERNLOGD $0xFF, Z2, Z2, Z2
	VPSRLD     $1, Z2, Z2 // 0x7fffffff
	CMPQ       CX, $16
	JL         maxabs_tail

maxabs_loop:
	VPANDD (SI), Z2, Z1
	VMAXPS Z0, Z1, Z0
	ADDQ   $64, SI
	SUBQ   $16, CX
	CMPQ   CX, $16
	JGE    maxabs_loop

maxabs_tail:
	TESTQ       CX, CX
	JZ          maxabs_done
	TAIL_MASK
	VMOVDQU32.Z (SI), K7, Z1
	VPANDD      Z2, Z1, Z1
	VMAXPS      Z0, Z1, Z0

maxabs_done:
	VMOVDQU32 Z0, (DI)
	VZEROUPPER
	RET

// CODES16(x): the offset-binary codes of x·inv in Z0's dword lanes, with
// the clamp moved in front of the bit extraction (the sum is clamped to
// magic±127 as a float, which is the same monotone map) so the integer
// subtraction cannot wrap; NaN lanes are zero-masked to code 0.
#define CODES16(x) \
	VMULPS        x, Z1, Z0; \
	VADDPS.BCST   0(R8), Z0, Z0; \
	VCMPPS        $0x07, Z0, Z0, K1; \
	VMINPS.BCST   4(R8), Z0, Z0; \
	VMAXPS.BCST   8(R8), Z0, Z0; \
	VPSUBD.BCST.Z 0(R8), Z0, K1, Z0; \
	VPADDD.BCST   12(R8), Z0, Z0

// func quantCodesAVX512(dst *uint8, src *float32, n int, consts *uint32, inv float32)
//
// quantCodesGo per lane (CODES16).
TEXT ·quantCodesAVX512(SB), NOSPLIT, $0-36
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVQ         consts+24(FP), R8
	VBROADCASTSS inv+32(FP), Z1
	CMPQ         CX, $16
	JL           codes_tail

codes_loop:
	CODES16((SI))
	VPMOVDB Z0, (DI)
	ADDQ    $64, SI
	ADDQ    $16, DI
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     codes_loop

codes_tail:
	TESTQ     CX, CX
	JZ        codes_done
	TAIL_MASK
	VMOVUPS.Z (SI), K7, Z2
	CODES16(Z2)
	VPMOVDB   Z0, K7, (DI)

codes_done:
	VZEROUPPER
	RET

// func dequantRowAVX512(out *float32, acc, corr *int32, scales, bias *float32, n int, sa float32)
//
// out[j] = float32(acc[j]-corr[j]) * (sa*scales[j]) + bias[j].
TEXT ·dequantRowAVX512(SB), NOSPLIT, $0-52
	MOVQ         out+0(FP), DI
	MOVQ         acc+8(FP), SI
	MOVQ         corr+16(FP), DX
	MOVQ         scales+24(FP), R8
	MOVQ         bias+32(FP), R9
	MOVQ         n+40(FP), CX
	VBROADCASTSS sa+48(FP), Z3
	XORQ         BX, BX
	CMPQ         CX, $16
	JL           dequant_tail

dequant_loop:
	VMOVDQU32 (SI)(BX*1), Z0
	VPSUBD    (DX)(BX*1), Z0, Z0
	VCVTDQ2PS Z0, Z0
	VMULPS    (R8)(BX*1), Z3, Z1
	VMULPS    Z1, Z0, Z0
	VADDPS    (R9)(BX*1), Z0, Z0
	VMOVUPS   Z0, (DI)(BX*1)
	ADDQ      $64, BX
	SUBQ      $16, CX
	CMPQ      CX, $16
	JGE       dequant_loop

dequant_tail:
	TESTQ       CX, CX
	JZ          dequant_done
	TAIL_MASK
	VMOVDQU32.Z (SI)(BX*1), K7, Z0
	VMOVDQU32.Z (DX)(BX*1), K7, Z4
	VPSUBD      Z4, Z0, Z0
	VCVTDQ2PS   Z0, Z0
	VMOVUPS.Z   (R8)(BX*1), K7, Z5
	VMULPS      Z5, Z3, Z1
	VMULPS      Z1, Z0, Z0
	VMOVUPS.Z   (R9)(BX*1), K7, Z6
	VADDPS      Z6, Z0, Z0
	VMOVUPS     Z0, K7, (DI)(BX*1)

dequant_done:
	VZEROUPPER
	RET
