// AVX-512 float64 row transcendentals: ExpRow, TanhRow and SigmoidRow, eight
// lanes at a time. Each lane transcribes the scalar code the rows must match
// bit for bit — math.Exp's amd64 FMA arm (exp_amd64.s, the arm math takes
// whenever the CPU has AVX and FMA, which detectAVX512 requires), math's
// tanh and mat.Sigmoid — with the same IEEE operation, fused or not, in the
// same order. Branches become blends: every arm is computed and the ones that
// apply are selected under compare masks, highest priority last. A ragged
// tail runs under a k-mask (masked load and store), so n may be any positive
// length.
//
// R8 points at row64Consts (fastmath64_amd64.go); the offsets below index it.

#include "textflag.h"

#define LOG2E 0
#define LN2U 8
#define LN2L 16
#define SIXTEENTH 24
#define C64 32
#define C56 40
#define C48 48
#define C40 56
#define C32 64
#define C24 72
#define HALF 80
#define ONE 88
#define TWO 96
#define BIAS 104
#define BIASM1 112
#define TINY 120
#define ZERO 128
#define M52 136
#define MAXB 144
#define OVERFLOW 152
#define ABS 160
#define INF 168
#define NEGINF 176
#define SIGN 184
#define SATURATE 192
#define CUTOFF 200
#define TP0 208
#define TP1 216
#define TP2 224
#define TQ0 232
#define TQ1 240
#define TQ2 248

// EXP8(x, r): r = math.Exp(x) per lane; x is preserved. Clobbers Z16-Z20
// and K1 only, so callers keep their own masks in K2-K7.
//
// archExp: e = int32(round(x·LOG2E)) (VCVTPD2DQ rounds to nearest like
// CVTSD2SL); r = x − e·LN2U − e·LN2L, each fused; r ×= 1/16; the fused
// 7-step Horner; r ×= p; three r = r·(r+2) and a fused fourth r = r·(r+2)+1;
// then ldexp(r, e) on 64-bit lanes. The blends replay archExp's branches:
// biased exponent ≤ 0 takes the denormal two-multiply scaling, below −52 it
// underflows to 0, ≥ 0x7FF or x > Overflow is +Inf, NaN and ±Inf return x
// and −Inf returns 0. The denormal arm runs only on its own lanes (under
// K1): on the others its scale wraps into a subnormal, and a subnormal
// operand costs a microcode assist per instruction.
#define EXP8(x, r) \
	VMULPD.BCST       LOG2E(R8), x, Z16; \
	VCVTPD2DQ         Z16, Y17; \
	VCVTDQ2PD         Y17, Z16; \
	VMOVAPD           x, r; \
	VFNMADD231PD.BCST LN2U(R8), Z16, r; \
	VFNMADD231PD.BCST LN2L(R8), Z16, r; \
	VMULPD.BCST       SIXTEENTH(R8), r, r; \
	VBROADCASTSD      C64(R8), Z18; \
	VFMADD213PD.BCST  C56(R8), r, Z18; \
	VFMADD213PD.BCST  C48(R8), r, Z18; \
	VFMADD213PD.BCST  C40(R8), r, Z18; \
	VFMADD213PD.BCST  C32(R8), r, Z18; \
	VFMADD213PD.BCST  C24(R8), r, Z18; \
	VFMADD213PD.BCST  HALF(R8), r, Z18; \
	VFMADD213PD.BCST  ONE(R8), r, Z18; \
	VMULPD            Z18, r, r; \
	VADDPD.BCST       TWO(R8), r, Z18; \
	VMULPD            Z18, r, r; \
	VADDPD.BCST       TWO(R8), r, Z18; \
	VMULPD            Z18, r, r; \
	VADDPD.BCST       TWO(R8), r, Z18; \
	VMULPD            Z18, r, r; \
	VADDPD.BCST       TWO(R8), r, Z18; \
	VFMADD213PD.BCST  ONE(R8), Z18, r; \
	VPMOVSXDQ         Y17, Z17; \
	VPADDQ.BCST       BIAS(R8), Z17, Z17; \
	VPCMPQ.BCST       $2, ZERO(R8), Z17, K1; \
	VPADDQ.BCST       BIASM1(R8), Z17, K1, Z19; \
	VPSLLQ            $52, Z19, K1, Z19; \
	VMULPD            Z19, r, K1, Z19; \
	VMULPD.BCST       TINY(R8), Z19, K1, Z19; \
	VPSLLQ            $52, Z17, Z20; \
	VMULPD            Z20, r, r; \
	VMOVAPD           Z19, K1, r; \
	VPCMPQ.BCST       $1, M52(R8), Z17, K1; \
	VPXORQ            r, r, K1, r; \
	VPCMPQ.BCST       $5, MAXB(R8), Z17, K1; \
	VBROADCASTSD      INF(R8), K1, r; \
	VCMPPD.BCST       $0x0E, OVERFLOW(R8), x, K1; \
	VBROADCASTSD      INF(R8), K1, r; \
	VPANDQ.BCST       ABS(R8), x, Z16; \
	VPCMPQ.BCST       $5, INF(R8), Z16, K1; \
	VMOVAPD           x, K1, r; \
	VPCMPQ.BCST       $0, NEGINF(R8), x, K1; \
	VPXORQ            r, r, K1, r

// The shared row loop. K7 selects the live lanes of each block: all eight,
// then the tail's n mod 8.
#define ROW64_ENTRY \
	MOVQ  dst+0(FP), DI; \
	MOVQ  src+8(FP), SI; \
	MOVQ  n+16(FP), CX; \
	MOVQ  consts+24(FP), R8; \
	MOVL  $0xFF, AX; \
	KMOVW AX, K7

#define TAIL_MASK MOVL $1, AX; SHLL CX, AX; DECL AX; KMOVW AX, K7

#define ROW64_STORE \
	VMOVUPD Z1, K7, (DI); \
	ADDQ    $64, SI; \
	ADDQ    $64, DI; \
	SUBQ    $8, CX

// func expRow64AVX512(dst, src *float64, n int, consts *uint64)
TEXT ·expRow64AVX512(SB), NOSPLIT, $0-32
	ROW64_ENTRY

exp64_loop:
	CMPQ CX, $8
	JGE  exp64_full
	TAIL_MASK

exp64_full:
	VMOVUPD.Z (SI), K7, Z0
	EXP8(Z0, Z1)
	ROW64_STORE
	JG   exp64_loop
	VZEROUPPER
	RET

// SIGMOID8: mat.Sigmoid per lane. e = Exp(x ≥ 0 ? −x : x), then
// (x ≥ 0 ? 1 : e) / (1 + e); NaN fails x ≥ 0 and propagates through e.
#define SIGMOID8 \
	VCMPPD.BCST  $0x0D, ZERO(R8), Z0, K2; \
	VMOVAPD      Z0, Z2; \
	VPXORQ.BCST  SIGN(R8), Z0, K2, Z2; \
	EXP8(Z2, Z1); \
	VADDPD.BCST  ONE(R8), Z1, Z3; \
	VBROADCASTSD ONE(R8), K2, Z1; \
	VDIVPD       Z3, Z1, Z1

// func sigmoidRow64AVX512(dst, src *float64, n int, consts *uint64)
TEXT ·sigmoidRow64AVX512(SB), NOSPLIT, $0-32
	ROW64_ENTRY

sig64_loop:
	CMPQ CX, $8
	JGE  sig64_full
	TAIL_MASK

sig64_full:
	VMOVUPD.Z (SI), K7, Z0
	SIGMOID8
	ROW64_STORE
	JG   sig64_loop
	VZEROUPPER
	RET

// TANH8: math's tanh per lane, z = |x|. The rational arm in tanh's order,
// x + ((x·s)·((P0·s+P1)·s+P2)) / (((s+Q0)·s+Q1)·s+Q2) with s = x·x; over it
// z ≥ 0.625 blends ±(1 − 2/(Exp(2z)+1)), then z > 0.5·MAXLOG blends ±1, and
// x == 0 returns x (keeping −0).
#define TANH8 \
	VPANDQ.BCST  ABS(R8), Z0, Z4; \
	VMULPD       Z0, Z0, Z2; \
	VMULPD.BCST  TP0(R8), Z2, Z3; \
	VADDPD.BCST  TP1(R8), Z3, Z3; \
	VMULPD       Z2, Z3, Z3; \
	VADDPD.BCST  TP2(R8), Z3, Z3; \
	VMULPD       Z2, Z0, Z1; \
	VMULPD       Z3, Z1, Z1; \
	VADDPD.BCST  TQ0(R8), Z2, Z3; \
	VMULPD       Z2, Z3, Z3; \
	VADDPD.BCST  TQ1(R8), Z3, Z3; \
	VMULPD       Z2, Z3, Z3; \
	VADDPD.BCST  TQ2(R8), Z3, Z3; \
	VDIVPD       Z3, Z1, Z1; \
	VADDPD       Z1, Z0, Z1; \
	VADDPD       Z4, Z4, Z2; \
	EXP8(Z2, Z3); \
	VADDPD.BCST  ONE(R8), Z3, Z3; \
	VBROADCASTSD TWO(R8), Z5; \
	VDIVPD       Z3, Z5, Z5; \
	VBROADCASTSD ONE(R8), Z3; \
	VSUBPD       Z5, Z3, Z3; \
	VCMPPD.BCST  $0x01, ZERO(R8), Z0, K2; \
	VPXORQ.BCST  SIGN(R8), Z3, K2, Z3; \
	VCMPPD.BCST  $0x0D, CUTOFF(R8), Z4, K2; \
	VMOVAPD      Z3, K2, Z1; \
	VPANDQ.BCST  SIGN(R8), Z0, Z3; \
	VPORQ.BCST   ONE(R8), Z3, Z3; \
	VCMPPD.BCST  $0x0E, SATURATE(R8), Z4, K2; \
	VMOVAPD      Z3, K2, Z1; \
	VCMPPD.BCST  $0x00, ZERO(R8), Z0, K2; \
	VMOVAPD      Z0, K2, Z1

// func tanhRow64AVX512(dst, src *float64, n int, consts *uint64)
TEXT ·tanhRow64AVX512(SB), NOSPLIT, $0-32
	ROW64_ENTRY

tanh64_loop:
	CMPQ CX, $8
	JGE  tanh64_full
	TAIL_MASK

tanh64_full:
	VMOVUPD.Z (SI), K7, Z0
	TANH8
	ROW64_STORE
	JG   tanh64_loop
	VZEROUPPER
	RET
