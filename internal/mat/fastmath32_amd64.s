// AVX-512 float32 row kernels of the mixed decode: ExpRow32, TanhRow32,
// SigmoidRow32, GELURow32, SoftmaxCols32 and NormRow32, sixteen lanes at a
// time (NormRow32, whose arithmetic is float64, in two eight-lane halves),
// and the LSTM recurrence (LSTMRecur32), which runs on the same macros.
// Each lane performs exactly the Go twin's operations (fastmath32.go,
// mat32.go) in its order — separate VMULPS/VADDPS, never FMA — so the two
// are bit-identical. Branches become blends: every arm is computed and the
// ones that apply are selected under compare masks. A ragged tail runs under
// a k-mask (masked load and store), so n may be any positive length.
//
// R8 points at row32Consts (fastmath32_amd64.go); the offsets below index it.

#include "textflag.h"

#define EXPHI 0
#define EXPLO 4
#define LOG2E 8
#define HALF 12
#define LN2HI 16
#define LN2LO 20
#define EP0 24
#define EP1 28
#define EP2 32
#define EP3 36
#define EP4 40
#define EP5 44
#define ONE 48
#define INF 52
#define TCLAMP 56
#define TNCLAMP 60
#define TA0 64
#define TA1 68
#define TA2 72
#define TA3 76
#define TA4 80
#define TA5 84
#define TA6 88
#define TB0 92
#define TB1 96
#define TB2 100
#define TB3 104
#define SIGN 108
#define GELUC 112
#define GELUK 116

// HORNER: acc = acc*x + consts[off].
#define HORNER(acc, x, off) VMULPS x, acc, acc; VADDPS.BCST off(R8), acc, acc

// EXP16(x, r): r = expRowGo(x) per lane; x is preserved. Clobbers Z24-Z27
// and K1-K3. Floor via VRNDSCALEPS, 2^n assembled by adding n<<23 to the
// bits of 1.0, and the three special cases (x > hi, x < lo, NaN) computed
// on garbage and then overwritten under compare masks.
#define EXP16(x, r) \
	VMULPS.BCST  LOG2E(R8), x, Z24; \
	VADDPS.BCST  HALF(R8), Z24, Z24; \
	VRNDSCALEPS  $9, Z24, Z24; \
	VCVTPS2DQ    Z24, Z25; \
	VMULPS.BCST  LN2HI(R8), Z24, Z26; \
	VSUBPS       Z26, x, Z27; \
	VMULPS.BCST  LN2LO(R8), Z24, Z26; \
	VSUBPS       Z26, Z27, Z27; \
	VMULPS       Z27, Z27, Z26; \
	VBROADCASTSS EP0(R8), r; \
	HORNER(r, Z27, EP1); \
	HORNER(r, Z27, EP2); \
	HORNER(r, Z27, EP3); \
	HORNER(r, Z27, EP4); \
	HORNER(r, Z27, EP5); \
	VMULPS       Z26, r, r; \
	VADDPS       Z27, r, r; \
	VADDPS.BCST  ONE(R8), r, r; \
	VPSLLD       $23, Z25, Z25; \
	VPADDD.BCST  ONE(R8), Z25, Z25; \
	VMULPS       Z25, r, r; \
	VCMPPS.BCST  $0x0E, EXPHI(R8), x, K1; \
	VBROADCASTSS INF(R8), K1, r; \
	VCMPPS.BCST  $0x01, EXPLO(R8), x, K2; \
	VPXORD       r, r, K2, r; \
	VCMPPS       $0x03, x, x, K3; \
	VMOVAPS      x, K3, r

// TANH16(x, r): r = tanhRowGo(x) per lane; x is preserved. Clobbers
// Z24-Z26 and K1: the clamp, the odd rational α(x²)·x / β(x²), and NaN
// returning x.
#define TANH16(x, r) \
	VMAXPS.BCST  TNCLAMP(R8), x, Z24; \
	VMINPS.BCST  TCLAMP(R8), Z24, Z24; \
	VMULPS       Z24, Z24, Z25; \
	VBROADCASTSS TA0(R8), r; \
	HORNER(r, Z25, TA1); \
	HORNER(r, Z25, TA2); \
	HORNER(r, Z25, TA3); \
	HORNER(r, Z25, TA4); \
	HORNER(r, Z25, TA5); \
	HORNER(r, Z25, TA6); \
	VMULPS       Z24, r, r; \
	VBROADCASTSS TB0(R8), Z26; \
	HORNER(Z26, Z25, TB1); \
	HORNER(Z26, Z25, TB2); \
	HORNER(Z26, Z25, TB3); \
	VDIVPS       Z26, r, r; \
	VCMPPS       $0x03, x, x, K1; \
	VMOVAPS      x, K1, r

// The shared row loop: full 16-lane blocks load and store whole vectors,
// then the last partial block runs the same body under K7, the tail's
// n mod 16 lanes (masked load and store). BODY maps Z0 to Z1.
#define ROW32_ENTRY \
	MOVQ dst+0(FP), DI; \
	MOVQ src+8(FP), SI; \
	MOVQ n+16(FP), CX; \
	MOVQ consts+24(FP), R8

#define TAIL_MASK MOVL $1, AX; SHLL CX, AX; DECL AX; KMOVW AX, K7

#define ROW32_NEXT \
	VMOVUPS Z1, (DI); \
	ADDQ    $64, SI; \
	ADDQ    $64, DI; \
	SUBQ    $16, CX; \
	CMPQ    CX, $16

// LSTM_K and LSTM_GATES are lstmRecurAVX512's step (below), defined ahead
// of the first TEXT because LSTM_GATES names one of its arguments.
//
// LSTM_K: one k of one direction: zh's four gate blocks += h[k]·Whᵀ[k].
#define LSTM_K(hp, wp, bc, a0, a1, a2, a3) \
	VBROADCASTSS (hp)(CX*1), bc; \
	VMULPS.Z     (wp), bc, K7, Z11; \
	VADDPS       Z11, a0, a0; \
	VMULPS.Z     (wp)(DX*1), bc, K7, Z12; \
	VADDPS       Z12, a1, a1; \
	VMULPS.Z     (wp)(DX*2), bc, K7, Z13; \
	VADDPS       Z13, a2, a2; \
	VMULPS.Z     (wp)(R13*1), bc, K7, Z14; \
	VADDPS       Z14, a3, a3; \
	LEAQ         (wp)(DX*4), wp

// LSTM_GATES: one direction's block after its accumulators a0-a3 are
// done: z = zx + zh, the gates, c = (f·c) + (i·g) in the cell at byte
// coff of work, and h = tanh(c)·o stored under K7. Clobbers AX, Z10-Z21
// and the macros' registers.
#define LSTM_GATES(a0, a1, a2, a3, zp, coff, hp) \
	LEAQ      (zp)(DI*1), AX; \
	VMOVUPS.Z (AX), K7, Z12; \
	VADDPS    a0, Z12, Z12; \
	VMOVUPS.Z (AX)(DX*1), K7, Z13; \
	VADDPS    a1, Z13, Z13; \
	VMOVUPS.Z (AX)(DX*2), K7, Z14; \
	VADDPS    a2, Z14, Z14; \
	VMOVUPS.Z (AX)(R13*1), K7, Z15; \
	VADDPS    a3, Z15, Z15; \
	SIGMOID16(Z12, Z16, Z10, Z11); \
	SIGMOID16(Z13, Z17, Z10, Z11); \
	TANH16(Z14, Z18); \
	SIGMOID16(Z15, Z19, Z10, Z11); \
	MOVQ      work+24(FP), AX; \
	VMOVUPS   coff(AX)(DI*1), Z20; \
	VMULPS    Z20, Z17, Z20; \
	VMULPS    Z18, Z16, Z21; \
	VADDPS    Z21, Z20, Z20; \
	VMOVUPS   Z20, coff(AX)(DI*1); \
	TANH16(Z20, Z21); \
	VMULPS    Z19, Z21, Z21; \
	VMOVUPS   Z21, K7, (hp)(DI*1)

// func expRowAVX512(dst, src *float32, n int, consts *uint32)
TEXT ·expRowAVX512(SB), NOSPLIT, $0-32
	ROW32_ENTRY
	CMPQ CX, $16
	JL   exp_tail

exp_loop:
	VMOVUPS (SI), Z0
	EXP16(Z0, Z1)
	ROW32_NEXT
	JGE     exp_loop

exp_tail:
	TESTQ     CX, CX
	JZ        exp_done
	TAIL_MASK
	VMOVUPS.Z (SI), K7, Z0
	EXP16(Z0, Z1)
	VMOVUPS   Z1, K7, (DI)

exp_done:
	VZEROUPPER
	RET

// func tanhRowAVX512(dst, src *float32, n int, consts *uint32)
TEXT ·tanhRowAVX512(SB), NOSPLIT, $0-32
	ROW32_ENTRY
	CMPQ CX, $16
	JL   tanh_tail

tanh_loop:
	VMOVUPS (SI), Z0
	TANH16(Z0, Z1)
	ROW32_NEXT
	JGE     tanh_loop

tanh_tail:
	TESTQ     CX, CX
	JZ        tanh_done
	TAIL_MASK
	VMOVUPS.Z (SI), K7, Z0
	TANH16(Z0, Z1)
	VMOVUPS   Z1, K7, (DI)

tanh_done:
	VZEROUPPER
	RET

// SIGMOID16(x, r, t, e): r = sigmoidRowGo(x) per lane; x is preserved:
// e = exp(t = −|x|), then (sign(x) ? e : 1) / (1 + e). Z9 holds the sign
// bit. Clobbers t, e, EXP16's registers and K4.
#define SIGMOID16(x, r, t, e) \
	VPORD        Z9, x, t; \
	EXP16(t, e); \
	VPTESTMD     Z9, x, K4; \
	VBROADCASTSS ONE(R8), r; \
	VMOVAPS      e, K4, r; \
	VADDPS.BCST  ONE(R8), e, e; \
	VDIVPS       e, r, r

// func sigmoidRowAVX512(dst, src *float32, n int, consts *uint32)
TEXT ·sigmoidRowAVX512(SB), NOSPLIT, $0-32
	ROW32_ENTRY
	VPBROADCASTD SIGN(R8), Z9
	CMPQ         CX, $16
	JL           sig_tail

sig_loop:
	VMOVUPS (SI), Z0
	SIGMOID16(Z0, Z1, Z2, Z3)
	ROW32_NEXT
	JGE     sig_loop

sig_tail:
	TESTQ     CX, CX
	JZ        sig_done
	TAIL_MASK
	VMOVUPS.Z (SI), K7, Z0
	SIGMOID16(Z0, Z1, Z2, Z3)
	VMOVUPS   Z1, K7, (DI)

sig_done:
	VZEROUPPER
	RET

// GELU16: geluRowGo per lane, Z0 to Z1: t = tanh(c·(v + ((0.044715·v)·v)·v)),
// then (0.5·v)·(1 + t).
#define GELU16 \
	VMULPS.BCST GELUK(R8), Z0, Z2; \
	VMULPS      Z0, Z2, Z2; \
	VMULPS      Z0, Z2, Z2; \
	VADDPS      Z2, Z0, Z2; \
	VMULPS.BCST GELUC(R8), Z2, Z2; \
	TANH16(Z2, Z3); \
	VADDPS.BCST ONE(R8), Z3, Z3; \
	VMULPS.BCST HALF(R8), Z0, Z1; \
	VMULPS      Z3, Z1, Z1

// func geluRowAVX512(dst, src *float32, n int, consts *uint32)
TEXT ·geluRowAVX512(SB), NOSPLIT, $0-32
	ROW32_ENTRY
	CMPQ CX, $16
	JL   gelu_tail

gelu_loop:
	VMOVUPS (SI), Z0
	GELU16
	ROW32_NEXT
	JGE     gelu_loop

gelu_tail:
	TESTQ     CX, CX
	JZ        gelu_done
	TAIL_MASK
	VMOVUPS.Z (SI), K7, Z0
	GELU16
	VMOVUPS   Z1, K7, (DI)

gelu_done:
	VZEROUPPER
	RET

// func softmaxColsAVX512(data *float32, rows, n int, scale float32, work *float32, wstride int, consts *uint32)
//
// softmaxColsGo with lanes spanning columns: per block of sixteen columns
// (the last one masked), three passes down the rows. The first scales each
// score of data into work and keeps the running max — VMAXPS with the new
// score as Intel's first source returns the running max when the two
// compare unordered or equal, exactly `if v > stat { stat = v }` (Go asm
// lists the sources in reverse). The second subtracts the max,
// exponentiates and sums in ascending row order from +0, in work; the third
// multiplies by 1/sum and stores into data. work is data itself (wstride
// the row's bytes) or, for a matrix narrower than one block, 64-byte row
// slots: there a masked store of one row would overlap the next row's load
// and stall it behind the store.
TEXT ·softmaxColsAVX512(SB), NOSPLIT, $0-56
	MOVQ         data+0(FP), DI
	MOVQ         rows+8(FP), BX
	MOVQ         n+16(FP), CX
	VBROADCASTSS scale+24(FP), Z15
	MOVQ         work+32(FP), R11
	MOVQ         wstride+40(FP), R10
	MOVQ         consts+48(FP), R8
	MOVQ         CX, DX
	SHLQ         $2, DX         // bytes per data row
	MOVL         $0xFFFF, AX
	KMOVW        AX, K7

smc_block:
	CMPQ CX, $16
	JGE  smc_full
	TAIL_MASK

smc_full:
	MOVQ      DI, SI
	MOVQ      R11, R12
	MOVQ      BX, R9
	VMOVUPS.Z (SI), K7, Z0
	VMULPS    Z15, Z0, Z0
	VMOVUPS   Z0, K7, (R12)
	VMOVAPS   Z0, Z1            // the first row seeds the max
	JMP       smc_max_next

smc_max:
	VMOVUPS.Z (SI), K7, Z0
	VMULPS    Z15, Z0, Z0
	VMOVUPS   Z0, K7, (R12)
	VMAXPS    Z1, Z0, Z1

smc_max_next:
	ADDQ DX, SI
	ADDQ R10, R12
	DECQ R9
	JNZ  smc_max

	MOVQ   R11, R12
	MOVQ   BX, R9
	VPXORD Z2, Z2, Z2

smc_exp:
	VMOVUPS.Z (R12), K7, Z0
	VSUBPS    Z1, Z0, Z0
	EXP16(Z0, Z3)
	VMOVUPS   Z3, K7, (R12)
	VADDPS    Z3, Z2, Z2
	ADDQ      R10, R12
	DECQ      R9
	JNZ       smc_exp

	VBROADCASTSS ONE(R8), Z4
	VDIVPS       Z2, Z4, Z4
	MOVQ         DI, SI
	MOVQ         R11, R12
	MOVQ         BX, R9

smc_scale:
	VMOVUPS.Z (R12), K7, Z0
	VMULPS    Z4, Z0, Z0
	VMOVUPS   Z0, K7, (SI)
	ADDQ      DX, SI
	ADDQ      R10, R12
	DECQ      R9
	JNZ       smc_scale

	ADDQ $64, DI
	ADDQ $64, R11
	SUBQ $16, CX
	JG   smc_block
	VZEROUPPER
	RET

// func normRowAVX512(dst, src *float32, gain, bias *float64, n int, mean, std float64)
//
// normRowGo per lane: float32((float64(v) − mean) / std · gain + bias),
// rounded to float32 once by VCVTPD2PS under the default round-to-nearest-
// even, as Go's conversion. Sixteen elements per iteration as two
// independent eight-lane float64 halves (K7 masks the float32 lanes, its low
// and high bytes the halves); a tail of at most eight takes one half alone,
// so no load runs under an all-zero mask.
#define NORM8(lo, hi, x, off) \
	VCVTPS2PD lo, x; \
	VSUBPD    Z14, x, x; \
	VDIVPD    Z15, x, x; \
	VMOVUPD.Z off(R9), hi, Z3; \
	VMULPD    Z3, x, x; \
	VMOVUPD.Z off(R10), hi, Z3; \
	VADDPD    Z3, x, x

TEXT ·normRowAVX512(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         gain+16(FP), R9
	MOVQ         bias+24(FP), R10
	MOVQ         n+32(FP), CX
	VBROADCASTSD mean+40(FP), Z14
	VBROADCASTSD std+48(FP), Z15
	MOVL         $0xFFFF, AX
	KMOVW        AX, K7

norm_loop:
	CMPQ CX, $16
	JGE  norm_full
	CMPQ CX, $8
	JLE  norm_half
	TAIL_MASK

norm_full:
	KSHIFTRW      $8, K7, K6
	VMOVUPS.Z     (SI), K7, Z0
	VEXTRACTF64X4 $1, Z0, Y2
	NORM8(Y0, K7, Z1, 0)
	NORM8(Y2, K6, Z2, 64)
	VCVTPD2PS     Z1, Y1
	VCVTPD2PS     Z2, Y2
	VINSERTF64X4  $1, Y2, Z1, Z1
	VMOVUPS       Z1, K7, (DI)
	ADDQ          $64, SI
	ADDQ          $64, DI
	ADDQ          $128, R9
	ADDQ          $128, R10
	SUBQ          $16, CX
	JG            norm_loop
	VZEROUPPER
	RET

norm_half:
	TAIL_MASK
	VMOVUPS.Z (SI), K7, Z0
	NORM8(Y0, K7, Z1, 0)
	VCVTPD2PS Z1, Y1
	VMOVUPS   Z1, K7, (DI)
	VZEROUPPER
	RET

// func lstmRecurAVX512(dirs *[2]lstmDir, n, h int, work *float32, consts *uint32)
//
// lstmRecurGo for two directions of n steps each, H = h ≤ 64 hidden units,
// in one call. A step runs block by block over sixteen hidden
// units (the last block under K7): for each direction, zh's four gate
// blocks accumulate h_{t-1}[k]·Whᵀ[k] from +0 in ascending k — the
// f32saxpy kernels' unfused VMULPS then VADDPS — the directions' chains
// interleaved in one loop; then each direction's gates, cell and hidden
// state, stored straight into its out row. h_{t-1} is read back from the
// previous step's out row (for t = 0 from work's zeroed first 64 floats);
// each direction's cell lives in work's next 64 floats.
//
// lstmDir (fastmath32_amd64.go) is 40 bytes: z, out, wht, zstep, ostep.
//
// Registers: DX = 4H bytes (one gate's columns, and k's end), R13 = 12H
// bytes (the o gate), DI = the block's byte offset, CX = k in bytes,
// BX/SI = the directions' Whᵀ rows, R9/R10 their z rows, R11/R12 their out
// rows, R14/R15 their h_{t-1}; 0(SP) counts the steps left. Z0-Z3 and Z4-Z7
// are the two directions' accumulators, Z9 the sign bit.

TEXT ·lstmRecurAVX512(SB), NOSPLIT, $8-40
	MOVQ         consts+32(FP), R8
	VPBROADCASTD SIGN(R8), Z9
	MOVQ         h+16(FP), DX
	SHLQ         $2, DX
	LEAQ         (DX)(DX*2), R13

	// K5: a full block; K6: the last block's lanes, H mod 16 (or all 16).
	MOVL  $0xFFFF, AX
	KMOVW AX, K5
	MOVQ  h+16(FP), CX
	ANDQ  $15, CX
	JZ    lstm_fullmask
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX

lstm_fullmask:
	KMOVW AX, K6

	MOVQ dirs+0(FP), AX
	MOVQ 0(AX), R9
	MOVQ 8(AX), R11
	MOVQ 40(AX), R10
	MOVQ 48(AX), R12
	MOVQ work+24(FP), R14
	MOVQ R14, R15
	MOVQ n+8(FP), AX
	MOVQ AX, 0(SP)

lstm_step:
	XORQ DI, DI

lstm_block:
	KMOVW K5, K7
	LEAQ  64(DI), AX
	CMPQ  AX, DX
	JLT   lstm_masked
	KMOVW K6, K7

lstm_masked:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ   dirs+0(FP), AX
	MOVQ   16(AX), BX
	ADDQ   DI, BX
	MOVQ   56(AX), SI
	ADDQ   DI, SI
	XORQ   CX, CX

lstm_k:
	LSTM_K(R14, BX, Z8, Z0, Z1, Z2, Z3)
	LSTM_K(R15, SI, Z10, Z4, Z5, Z6, Z7)
	ADDQ $4, CX
	CMPQ CX, DX
	JLT  lstm_k
	LSTM_GATES(Z0, Z1, Z2, Z3, R9, 256, R11)
	LSTM_GATES(Z4, Z5, Z6, Z7, R10, 512, R12)
	ADDQ $64, DI
	CMPQ DI, DX
	JLT  lstm_block

	MOVQ R11, R14
	MOVQ R12, R15
	MOVQ dirs+0(FP), AX
	ADDQ 24(AX), R9
	ADDQ 32(AX), R11
	ADDQ 64(AX), R10
	ADDQ 72(AX), R12
	DECQ 0(SP)
	JNZ  lstm_step
	VZEROUPPER
	RET
