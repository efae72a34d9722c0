// AVX2 register tiles for every fp32 and int8 product, the GELU and
// LayerNorm passes, Adam's update, and the CPUID probes that gate
// them. See tile_amd64.go.

#include "textflag.h"

// func tileF32x4(o, a, b *float32, k, n, sa, sp int)
//
// One 4-row × 16-column tile of o = A·B with the whole k loop inside.
// Row r's A element at step p sits at a[r*sa+p*sp]; b and o rows are
// n floats apart. Eight accumulators (rows × two 8-lane halves) start
// at +0 and take each product with VMULPS then VADDPS, in p order —
// the scalar chain `o += a*b`, rounding for rounding. No FMA: a fused
// multiply-add rounds once and would not give the scalar bits.
// Requires k ≥ 1.
TEXT ·tileF32x4(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R8
	MOVQ sa+40(FP), R9
	MOVQ sp+48(FP), R10
	SHLQ $2, R8           // row stride of b and o, bytes
	SHLQ $2, R9           // A row stride, bytes
	SHLQ $2, R10          // A step stride, bytes
	LEAQ (R9)(R9*2), R11  // three A rows

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

tile4k:
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (AX), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y0, Y0
	VMULPS       Y9, Y10, Y11
	VADDPS       Y11, Y1, Y1
	VBROADCASTSS (AX)(R9*1), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       Y9, Y10, Y11
	VADDPS       Y11, Y3, Y3
	VBROADCASTSS (AX)(R9*2), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y4, Y4
	VMULPS       Y9, Y10, Y11
	VADDPS       Y11, Y5, Y5
	VBROADCASTSS (AX)(R11*1), Y10
	VMULPS       Y8, Y10, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       Y9, Y10, Y11
	VADDPS       Y11, Y7, Y7
	ADDQ         R10, AX
	ADDQ         R8, BX
	DECQ         CX
	JNZ          tile4k

	LEAQ    (R8)(R8*2), R11 // three output rows
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R8*1)
	VMOVUPS Y3, 32(DI)(R8*1)
	VMOVUPS Y4, (DI)(R8*2)
	VMOVUPS Y5, 32(DI)(R8*2)
	VMOVUPS Y6, (DI)(R11*1)
	VMOVUPS Y7, 32(DI)(R11*1)
	VZEROUPPER
	RET

// func rowF32(o, a, b *float32, k, n, sp, cols int)
//
// One output row, for the rows tileF32x4 leaves over: columns
// [0, cols) of o += A·B, cols a multiple of 16, o zeroed by the
// caller. It is the scalar body vectorized: each pass over the row
// takes four k steps (then single steps for k%4), loads 16 columns of
// o, adds the four products one at a time in p order and stores them.
// B is read row by row, so a one-row product (a decode step's matvec)
// streams each row of B once.
TEXT ·rowF32(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), R8
	MOVQ sp+40(FP), R10
	MOVQ cols+48(FP), R11
	SHLQ $2, R8
	SHLQ $2, R10
	SHLQ $2, R11

pass4:
	CMPQ         CX, $4
	JLT          pass1
	VBROADCASTSS (SI), Y12
	ADDQ         R10, SI
	VBROADCASTSS (SI), Y13
	ADDQ         R10, SI
	VBROADCASTSS (SI), Y14
	ADDQ         R10, SI
	VBROADCASTSS (SI), Y15
	ADDQ         R10, SI
	MOVQ         DX, BX
	LEAQ         (DX)(R8*1), R9
	LEAQ         (DX)(R8*2), R12
	LEAQ         (R9)(R8*2), R13
	XORQ         AX, AX

cols4:
	VMOVUPS (DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMULPS  (BX)(AX*1), Y12, Y2
	VADDPS  Y2, Y0, Y0
	VMULPS  32(BX)(AX*1), Y12, Y3
	VADDPS  Y3, Y1, Y1
	VMULPS  (R9)(AX*1), Y13, Y2
	VADDPS  Y2, Y0, Y0
	VMULPS  32(R9)(AX*1), Y13, Y3
	VADDPS  Y3, Y1, Y1
	VMULPS  (R12)(AX*1), Y14, Y2
	VADDPS  Y2, Y0, Y0
	VMULPS  32(R12)(AX*1), Y14, Y3
	VADDPS  Y3, Y1, Y1
	VMULPS  (R13)(AX*1), Y15, Y2
	VADDPS  Y2, Y0, Y0
	VMULPS  32(R13)(AX*1), Y15, Y3
	VADDPS  Y3, Y1, Y1
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, R11
	JLT     cols4
	LEAQ    (DX)(R8*4), DX
	SUBQ    $4, CX
	JMP     pass4

pass1:
	TESTQ        CX, CX
	JZ           rowdone
	VBROADCASTSS (SI), Y12
	ADDQ         R10, SI
	XORQ         AX, AX

cols1:
	VMOVUPS (DI)(AX*1), Y0
	VMOVUPS 32(DI)(AX*1), Y1
	VMULPS  (DX)(AX*1), Y12, Y2
	VADDPS  Y2, Y0, Y0
	VMULPS  32(DX)(AX*1), Y12, Y3
	VADDPS  Y3, Y1, Y1
	VMOVUPS Y0, (DI)(AX*1)
	VMOVUPS Y1, 32(DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, R11
	JLT     cols1
	ADDQ    R8, DX
	DECQ    CX
	JMP     pass1

rowdone:
	VZEROUPPER
	RET

// func tileInt8x2(o0, o1 *float32, a0, a1, w *int8, k, k16, n int)
//
// Two activation rows against every channel of a [n][k] int8 weight,
// four channels at a time: for each channel j it leaves the exact
// int32 sums a0·w[j] and a1·w[j] over p < k16 (k16 a multiple of 16)
// in the bits of o0[j] and o1[j]; the caller adds the p ≥ k16 tail and
// dequantizes. 16 int8 lanes widen to int16 (VPMOVSXBW) and VPMADDWD
// adds pairs of products into int32 lanes. Every product is ≤ 127², so
// the int32 sums are exact below k = 2³¹/127² ≈ 133k, whatever the
// order they are added in.
TEXT ·tileInt8x2(SB), NOSPLIT, $0-64
	MOVQ o0+0(FP), DI
	MOVQ o1+8(FP), DX
	MOVQ a0+16(FP), SI
	MOVQ a1+24(FP), BX
	MOVQ w+32(FP), R8
	MOVQ k+40(FP), R9
	MOVQ k16+48(FP), R12
	MOVQ n+56(FP), R11
	LEAQ (R9)(R9*2), R10 // three weight rows
	XORQ CX, CX          // channel

quad:
	LEAQ   4(CX), AX
	CMPQ   AX, R11
	JGT    single
	VPXOR  Y0, Y0, Y0
	VPXOR  Y1, Y1, Y1
	VPXOR  Y2, Y2, Y2
	VPXOR  Y3, Y3, Y3
	VPXOR  Y4, Y4, Y4
	VPXOR  Y5, Y5, Y5
	VPXOR  Y6, Y6, Y6
	VPXOR  Y7, Y7, Y7
	XORQ   AX, AX        // p
	MOVQ   R8, R13       // &w[j][p]

quadk:
	CMPQ      AX, R12
	JGE       quadsum
	VPMOVSXBW (SI)(AX*1), Y8
	VPMOVSXBW (BX)(AX*1), Y9
	VPMOVSXBW (R13), Y10
	VPMADDWD  Y8, Y10, Y11
	VPADDD    Y11, Y0, Y0
	VPMADDWD  Y9, Y10, Y11
	VPADDD    Y11, Y4, Y4
	VPMOVSXBW (R13)(R9*1), Y10
	VPMADDWD  Y8, Y10, Y11
	VPADDD    Y11, Y1, Y1
	VPMADDWD  Y9, Y10, Y11
	VPADDD    Y11, Y5, Y5
	VPMOVSXBW (R13)(R9*2), Y10
	VPMADDWD  Y8, Y10, Y11
	VPADDD    Y11, Y2, Y2
	VPMADDWD  Y9, Y10, Y11
	VPADDD    Y11, Y6, Y6
	VPMOVSXBW (R13)(R10*1), Y10
	VPMADDWD  Y8, Y10, Y11
	VPADDD    Y11, Y3, Y3
	VPMADDWD  Y9, Y10, Y11
	VPADDD    Y11, Y7, Y7
	ADDQ      $16, AX
	ADDQ      $16, R13
	JMP       quadk

quadsum:
	// Fold each row's four accumulators into one xmm of four channel
	// sums: two horizontal-add rounds, then the upper 128 bits.
	VPHADDD      Y1, Y0, Y0
	VPHADDD      Y3, Y2, Y2
	VPHADDD      Y2, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VMOVDQU      X0, (DI)(CX*4)
	VPHADDD      Y5, Y4, Y4
	VPHADDD      Y7, Y6, Y6
	VPHADDD      Y6, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDD       X5, X4, X4
	VMOVDQU      X4, (DX)(CX*4)
	LEAQ         (R8)(R9*4), R8
	ADDQ         $4, CX
	JMP          quad

single:
	CMPQ  CX, R11
	JGE   int8done
	VPXOR Y0, Y0, Y0
	VPXOR Y4, Y4, Y4
	XORQ  AX, AX

singlek:
	CMPQ      AX, R12
	JGE       singlesum
	VPMOVSXBW (SI)(AX*1), Y8
	VPMOVSXBW (BX)(AX*1), Y9
	VPMOVSXBW (R8)(AX*1), Y10
	VPMADDWD  Y8, Y10, Y11
	VPADDD    Y11, Y0, Y0
	VPMADDWD  Y9, Y10, Y11
	VPADDD    Y11, Y4, Y4
	ADDQ      $16, AX
	JMP       singlek

singlesum:
	// Y0 and Y4 fold side by side: lanes 0 and 1 of X0 end up holding
	// row 0's and row 1's sums.
	VPHADDD      Y4, Y0, Y0
	VPHADDD      Y0, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, (DI)(CX*4)
	VPEXTRD      $1, X0, (DX)(CX*4)
	ADDQ         R9, R8
	INCQ         CX
	JMP          single

int8done:
	VZEROUPPER
	RET

// func absMaxF32(a *float32, n int) float32
//
// max |a[i]| over n floats, n a multiple of 16, NaNs skipped as the
// scalar `if v > amax` skips them: VMAXPS returns its second source
// when either is NaN, and the second source is the running max. A max
// is exact, so the lane order changes nothing.
TEXT ·absMaxF32(SB), NOSPLIT, $0-20
	MOVQ         a+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVL         $0x7fffffff, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15
	VXORPS       Y0, Y0, Y0
	VXORPS       Y1, Y1, Y1

absloop:
	VANDPS  (SI), Y15, Y2
	VANDPS  32(SI), Y15, Y3
	VMAXPS  Y0, Y2, Y0
	VMAXPS  Y1, Y3, Y1
	ADDQ    $64, SI
	SUBQ    $16, CX
	JNZ     absloop

	VMAXPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0x4E, X0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0xB1, X0, X1
	VMAXPS       X1, X0, X0
	VZEROUPPER
	MOVSS        X0, ret+16(FP)
	RET

// func quantizeF32(q *int8, a *float32, n int, inv float32)
//
// q[i] = quantClamp(a[i]·inv) over n floats, n a multiple of 16: the
// product rounds as the scalar one does, ±0.5 is added by the sign of
// the product (copysign; -0 and NaN land where the scalar branch puts
// them once truncated), VCVTTPS2DQ truncates toward zero as int32()
// does — out-of-range and NaN become INT32_MIN, as there — and the
// result clamps to ±127 before it narrows to int8.
TEXT ·quantizeF32(SB), NOSPLIT, $0-28
	MOVQ         q+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS inv+24(FP), Y15
	MOVL         $0x80000000, AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14      // sign bit
	MOVL         $0x3f000000, AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13      // 0.5
	MOVL         $127, AX
	VMOVD        AX, X12
	VPBROADCASTD X12, Y12      // 127
	MOVL         $-127, AX
	VMOVD        AX, X11
	VPBROADCASTD X11, Y11      // -127

quantloop:
	VMULPS     (SI), Y15, Y0
	VMULPS     32(SI), Y15, Y1
	VANDPS     Y0, Y14, Y2
	VORPS      Y2, Y13, Y2
	VADDPS     Y2, Y0, Y0
	VANDPS     Y1, Y14, Y3
	VORPS      Y3, Y13, Y3
	VADDPS     Y3, Y1, Y1
	VCVTTPS2DQ Y0, Y0
	VCVTTPS2DQ Y1, Y1
	VPMINSD    Y12, Y0, Y0
	VPMAXSD    Y11, Y0, Y0
	VPMINSD    Y12, Y1, Y1
	VPMAXSD    Y11, Y1, Y1
	// int32 → int16 → int8, undoing VPACKSSDW's per-lane interleave.
	VPACKSSDW    Y1, Y0, Y0
	VPERMQ       $0xD8, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPACKSSWB    X1, X0, X0
	VMOVDQU      X0, (DI)
	ADDQ         $64, SI
	ADDQ         $16, DI
	SUBQ         $16, CX
	JNZ          quantloop
	VZEROUPPER
	RET

// func dequantF32(o, scale *float32, n int, rscale float32)
//
// o[j] = float32(int32 bits of o[j]) · rscale · scale[j] over n floats,
// n a multiple of 8: the int8 epilogue, converted and multiplied in the
// scalar order.
TEXT ·dequantF32(SB), NOSPLIT, $0-28
	MOVQ         o+0(FP), DI
	MOVQ         scale+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS rscale+24(FP), Y15

dequantloop:
	VCVTDQ2PS (DI), Y0
	VMULPS    Y15, Y0, Y0
	VMULPS    (SI), Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ      $32, DI
	ADDQ      $32, SI
	SUBQ      $8, CX
	JNZ       dequantloop
	VZEROUPPER
	RET

// Four-lane float64 constants for GELU and its tanh, bit patterns of
// the float64 constants math.tanh, math.archExp (exp_amd64.s) and
// geluScalar use.
#define CONST4(sym, bits) \
	DATA sym+0(SB)/8, $bits; \
	DATA sym+8(SB)/8, $bits; \
	DATA sym+16(SB)/8, $bits; \
	DATA sym+24(SB)/8, $bits; \
	GLOBL sym(SB), RODATA|NOPTR, $32

CONST4(gAbs<>, 0x7fffffffffffffff)
CONST4(gSign<>, 0x8000000000000000)
CONST4(gHalf<>, 0x3fe0000000000000)    // 0.5
CONST4(gOne<>, 0x3ff0000000000000)     // 1
CONST4(gTwo<>, 0x4000000000000000)     // 2
CONST4(gSqrt2Pi<>, 0x3fe9884533d43651) // sqrt(2/pi)
CONST4(gCube<>, 0x3fa6e4e26d4801f7)    // 0.044715
CONST4(gCube3<>, 0x3fc12ba9d1f60179)   // 3*0.044715, folded: 0.134145
CONST4(gTanhMid<>, 0x3fe4000000000000) // 0.625
CONST4(gTanhBig<>, 0x404601e678fc457b) // 0.5*MAXLOG = 44.0148...
CONST4(gP0<>, 0xbfeedc5baafd6f4b)
CONST4(gP1<>, 0xc058d26a0e26682d)
CONST4(gP2<>, 0xc0993ac030580563)
CONST4(gQ0<>, 0x405c33f28a581b86)
CONST4(gQ1<>, 0x40a176fa0e5535fa)
CONST4(gQ2<>, 0x40b2ec102442040c)
CONST4(gLog2e<>, 0x3ff71547652b82fe)
CONST4(gLn2U<>, 0x3fe62e42fefa3000)
CONST4(gLn2L<>, 0x3d53de6af278ece6)
CONST4(gSixteenth<>, 0x3fb0000000000000) // 0.0625
CONST4(gC24<>, 0x3fc5555555555555)
CONST4(gC32<>, 0x3fa5555555555555)
CONST4(gC40<>, 0x3f81111111111111)
CONST4(gC48<>, 0x3f56c16c16c16c17)
CONST4(gC56<>, 0x3f2a01a01a01a01a)
CONST4(gC64<>, 0x3efa01a01a01a01a)
CONST4(gExpBias<>, 0x00000000000003ff) // int64 1023

// TANH4 replaces each float64 lane u of Y0 with math.Tanh(u), bit for
// bit, and clobbers Y1-Y8. All three branches of math.tanh run on
// every lane and a mask per branch picks the result:
//   - |u| > 0.5*MAXLOG: ±1 by the sign of u;
//   - |u| ≥ 0.625: 1 - 2/(exp(2|u|)+1), signed like u, where exp is
//     math.archExp's FMA branch (its reduction, Taylor series and
//     ldexp, instruction for instruction: 2|u| ≤ 88.03 never reaches
//     its overflow, denormal or not-finite exits);
//   - otherwise u + u·s·P(s)/Q(s) with s = u², or u itself when u = ±0
//     (NaN takes this branch and stays NaN).
// Products and sums keep math.tanh's operand order, so a NaN operand
// propagates as it does there.
#define TANH4 \
	VANDPD       gAbs<>(SB), Y0, Y1; \
	VADDPD       Y1, Y1, Y2; \
	VMULPD       gLog2e<>(SB), Y2, Y3; \
	VCVTPD2DQY   Y3, X3; \
	VCVTDQ2PD    X3, Y4; \
	VFNMADD231PD gLn2U<>(SB), Y4, Y2; \
	VFNMADD231PD gLn2L<>(SB), Y4, Y2; \
	VMULPD       gSixteenth<>(SB), Y2, Y2; \
	VMOVUPD      gC64<>(SB), Y5; \
	VFMADD213PD  gC56<>(SB), Y2, Y5; \
	VFMADD213PD  gC48<>(SB), Y2, Y5; \
	VFMADD213PD  gC40<>(SB), Y2, Y5; \
	VFMADD213PD  gC32<>(SB), Y2, Y5; \
	VFMADD213PD  gC24<>(SB), Y2, Y5; \
	VFMADD213PD  gHalf<>(SB), Y2, Y5; \
	VFMADD213PD  gOne<>(SB), Y2, Y5; \
	VMULPD       Y5, Y2, Y2; \
	VADDPD       gTwo<>(SB), Y2, Y5; \
	VMULPD       Y5, Y2, Y2; \
	VADDPD       gTwo<>(SB), Y2, Y5; \
	VMULPD       Y5, Y2, Y2; \
	VADDPD       gTwo<>(SB), Y2, Y5; \
	VMULPD       Y5, Y2, Y2; \
	VADDPD       gTwo<>(SB), Y2, Y5; \
	VFMADD213PD  gOne<>(SB), Y5, Y2; \
	VPMOVSXDQ    X3, Y3; \
	VPADDQ       gExpBias<>(SB), Y3, Y3; \
	VPSLLQ       $52, Y3, Y3; \
	VMULPD       Y3, Y2, Y2; \
	VADDPD       gOne<>(SB), Y2, Y2; \
	VMOVUPD      gTwo<>(SB), Y3; \
	VDIVPD       Y2, Y3, Y3; \
	VMOVUPD      gOne<>(SB), Y2; \
	VSUBPD       Y3, Y2, Y2; \
	VANDPD       gSign<>(SB), Y0, Y6; \
	VXORPD       Y6, Y2, Y2; \
	VMULPD       Y0, Y0, Y3; \
	VMULPD       Y3, Y0, Y4; \
	VMULPD       gP0<>(SB), Y3, Y5; \
	VADDPD       gP1<>(SB), Y5, Y5; \
	VMULPD       Y3, Y5, Y5; \
	VADDPD       gP2<>(SB), Y5, Y5; \
	VMULPD       Y4, Y5, Y5; \
	VADDPD       gQ0<>(SB), Y3, Y7; \
	VMULPD       Y3, Y7, Y7; \
	VADDPD       gQ1<>(SB), Y7, Y7; \
	VMULPD       Y3, Y7, Y7; \
	VADDPD       gQ2<>(SB), Y7, Y7; \
	VDIVPD       Y7, Y5, Y5; \
	VADDPD       Y5, Y0, Y5; \
	VXORPD       Y7, Y7, Y7; \
	VCMPPD       $0x00, Y7, Y0, Y8; \
	VBLENDVPD    Y8, Y0, Y5, Y5; \
	VCMPPD       $0x0d, gTanhMid<>(SB), Y1, Y8; \
	VBLENDVPD    Y8, Y2, Y5, Y5; \
	VCMPPD       $0x0e, gTanhBig<>(SB), Y1, Y8; \
	VORPD        gOne<>(SB), Y6, Y6; \
	VBLENDVPD    Y8, Y6, Y5, Y0

// GELU4 leaves geluScalar's float64 value, 0.5·x·(1 + tanh(u)) with
// u = sqrt(2/pi)·(x + ((0.044715·x)·x)·x), in Y0 for the float64 lanes
// x of Y9, in geluScalar's order; it clobbers Y1-Y8.
#define GELU4 \
	VMULPD gCube<>(SB), Y9, Y0; \
	VMULPD Y9, Y0, Y0; \
	VMULPD Y9, Y0, Y0; \
	VADDPD Y9, Y0, Y0; \
	VMULPD gSqrt2Pi<>(SB), Y0, Y0; \
	TANH4; \
	VADDPD gOne<>(SB), Y0, Y0; \
	VMULPD gHalf<>(SB), Y9, Y1; \
	VMULPD Y1, Y0, Y0

// GELUGRAD4 leaves geluGradScalar's float64 value, 0.5·(1+t) +
// ((0.5·x)·(1-t·t))·du with du = sqrt(2/pi)·(1 + (0.134145·x)·x), in Y1
// for the float64 lanes x of Y9; it clobbers Y0 and Y2-Y11.
#define GELUGRAD4 \
	VMULPD  gCube3<>(SB), Y9, Y10; \
	VMULPD  Y9, Y10, Y10; \
	VADDPD  gOne<>(SB), Y10, Y10; \
	VMULPD  gSqrt2Pi<>(SB), Y10, Y10; \
	VMULPD  gHalf<>(SB), Y9, Y11; \
	VMULPD  gCube<>(SB), Y9, Y0; \
	VMULPD  Y9, Y0, Y0; \
	VMULPD  Y9, Y0, Y0; \
	VADDPD  Y9, Y0, Y0; \
	VMULPD  gSqrt2Pi<>(SB), Y0, Y0; \
	TANH4; \
	VADDPD  gOne<>(SB), Y0, Y1; \
	VMULPD  gHalf<>(SB), Y1, Y1; \
	VMULPD  Y0, Y0, Y2; \
	VMOVUPD gOne<>(SB), Y3; \
	VSUBPD  Y2, Y3, Y3; \
	VMULPD  Y11, Y3, Y3; \
	VMULPD  Y10, Y3, Y3; \
	VADDPD  Y3, Y1, Y1

// func geluF32(dst, a *float32, n int)
//
// dst[i] = geluScalar(a[i]) over n floats, n a multiple of 4 and > 0:
// GELU4 on four float64 lanes, rounded to float32 once, as the scalar
// body does. dst may alias a. The exp inside TANH4 is fused, so the
// caller also checks hasFMA: that is when math.Exp fuses too.
TEXT ·geluF32(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX

gelu4:
	VCVTPS2PD  (SI), Y9
	GELU4
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	SUBQ       $4, CX
	JNZ        gelu4
	VZEROUPPER
	RET

// func geluGradF32(dst, pre, grad *float32, n int)
//
// dst[i] = grad[i]·geluGradScalar(pre[i]) over n floats, n a multiple
// of 4 and > 0: GELUGRAD4 rounded to float32, then the float32 product
// with the gradient on the right, as the scalar body's MULSS has it.
TEXT ·geluGradF32(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ pre+8(FP), SI
	MOVQ grad+16(FP), DX
	MOVQ n+24(FP), CX

geluGrad4:
	VCVTPS2PD  (SI), Y9
	GELUGRAD4
	VCVTPD2PSY Y1, X1
	VMULPS     (DX), X1, X1
	VMOVUPS    X1, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DX
	ADDQ       $16, DI
	SUBQ       $4, CX
	JNZ        geluGrad4
	VZEROUPPER
	RET

// func tanhF64(dst, a *float64, n int)
// func geluF64(dst, a *float64, n int)
// func geluGradF64(dst, a *float64, n int)
//
// TANH4, GELU4 and GELUGRAD4 over float64 slices, n a multiple of 4 and
// > 0: the float64 values the float32 kernels round, which a test can
// hold to math.Tanh and the scalar bodies' float64 arithmetic bit for
// bit, where one float64 ulp rarely survives the rounding to float32.
TEXT ·tanhF64(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX

tanh4:
	VMOVUPD (SI), Y0
	TANH4
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     tanh4
	VZEROUPPER
	RET

TEXT ·geluF64(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX

gelu64:
	VMOVUPD (SI), Y9
	GELU4
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     gelu64
	VZEROUPPER
	RET

TEXT ·geluGradF64(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ n+16(FP), CX

geluGrad64:
	VMOVUPD (SI), Y9
	GELUGRAD4
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     geluGrad64
	VZEROUPPER
	RET

// TRANSPOSE4 turns four rows of four floats (r0-r3) into four columns
// in the same registers: afterwards r0 holds element 0 of every row, r1
// element 1, and so on. t0-t3 are scratch.
#define TRANSPOSE4(r0, r1, r2, r3, t0, t1, t2, t3) \
	VUNPCKLPS r1, r0, t0; \
	VUNPCKHPS r1, r0, t1; \
	VUNPCKLPS r3, r2, t2; \
	VUNPCKHPS r3, r2, t3; \
	VUNPCKLPD t2, t0, r0; \
	VUNPCKHPD t2, t0, r1; \
	VUNPCKLPD t3, t1, r2; \
	VUNPCKHPD t3, t1, r3

// LOADROWS4 loads four floats at column AX of the four rows at base,
// base+R11, base+2·R11 and base+R12 (R11 a row in bytes, R12 three).
#define LOADROWS4(base, r0, r1, r2, r3) \
	VMOVUPS (base)(AX*4), r0; \
	LEAQ    (base)(AX*4), R13; \
	VMOVUPS (R13)(R11*1), r1; \
	VMOVUPS (R13)(R11*2), r2; \
	VMOVUPS (R13)(R12*1), r3

// LOADCOL4 gathers column AX of the same four rows into the lanes of r.
#define LOADCOL4(base, r) \
	LEAQ      (base)(AX*4), R13; \
	VMOVSS    (R13), r; \
	VINSERTPS $0x10, (R13)(R11*1), r, r; \
	VINSERTPS $0x20, (R13)(R11*2), r, r; \
	VINSERTPS $0x30, (R13)(R12*1), r, r

// func lnStats4(a *float32, cols int, eps float32, mean, invStd *float32)
//
// layerNormStats for the four rows a, a+cols, a+2·cols, a+3·cols, each
// row one float64 lane, cols ≥ 1. A lane's sums take its row's columns
// in order (four columns per pass, transposed so that lanes are rows),
// then mean = sum/cols, variance = Σ(x-mean)²/cols and invStd =
// 1/sqrt(variance+eps) are IEEE operations, rounded to float32 once:
// the scalar body's bits, row for row.
TEXT ·lnStats4(SB), NOSPLIT, $0-40
	MOVQ      a+0(FP), SI
	MOVQ      cols+8(FP), CX
	MOVQ      mean+24(FP), DI
	MOVQ      invStd+32(FP), DX
	LEAQ      (CX*4), R11
	LEAQ      (R11)(R11*2), R12
	MOVQ      CX, R10
	ANDQ      $-4, R10
	VXORPD    Y0, Y0, Y0
	XORQ      AX, AX

meancols4:
	CMPQ      AX, R10
	JGE       meancol1
	LOADROWS4(SI, X4, X5, X6, X7)
	TRANSPOSE4(X4, X5, X6, X7, X8, X9, X10, X11)
	VCVTPS2PD X4, Y4
	VCVTPS2PD X5, Y5
	VCVTPS2PD X6, Y6
	VCVTPS2PD X7, Y7
	VADDPD    Y4, Y0, Y0
	VADDPD    Y5, Y0, Y0
	VADDPD    Y6, Y0, Y0
	VADDPD    Y7, Y0, Y0
	ADDQ      $4, AX
	JMP       meancols4

meancol1:
	CMPQ      AX, CX
	JGE       meandone
	LOADCOL4(SI, X4)
	VCVTPS2PD X4, Y4
	VADDPD    Y4, Y0, Y0
	INCQ      AX
	JMP       meancol1

meandone:
	VCVTSI2SDQ   CX, X1, X1
	VBROADCASTSD X1, Y1
	VDIVPD       Y1, Y0, Y0
	VXORPD       Y2, Y2, Y2
	XORQ         AX, AX

varcols4:
	CMPQ      AX, R10
	JGE       varcol1
	LOADROWS4(SI, X4, X5, X6, X7)
	TRANSPOSE4(X4, X5, X6, X7, X8, X9, X10, X11)
	VCVTPS2PD X4, Y4
	VCVTPS2PD X5, Y5
	VCVTPS2PD X6, Y6
	VCVTPS2PD X7, Y7
	VSUBPD    Y0, Y4, Y4
	VSUBPD    Y0, Y5, Y5
	VSUBPD    Y0, Y6, Y6
	VSUBPD    Y0, Y7, Y7
	VMULPD    Y4, Y4, Y4
	VMULPD    Y5, Y5, Y5
	VMULPD    Y6, Y6, Y6
	VMULPD    Y7, Y7, Y7
	VADDPD    Y4, Y2, Y2
	VADDPD    Y5, Y2, Y2
	VADDPD    Y6, Y2, Y2
	VADDPD    Y7, Y2, Y2
	ADDQ      $4, AX
	JMP       varcols4

varcol1:
	CMPQ      AX, CX
	JGE       vardone
	LOADCOL4(SI, X4)
	VCVTPS2PD X4, Y4
	VSUBPD    Y0, Y4, Y4
	VMULPD    Y4, Y4, Y4
	VADDPD    Y4, Y2, Y2
	INCQ      AX
	JMP       varcol1

vardone:
	VDIVPD       Y1, Y2, Y2
	VCVTSS2SD    eps+16(FP), X3, X3
	VBROADCASTSD X3, Y3
	VADDPD       Y3, Y2, Y2
	VSQRTPD      Y2, Y2
	VMOVUPD      gOne<>(SB), Y3
	VDIVPD       Y2, Y3, Y3
	VCVTPD2PSY   Y0, X0
	VMOVUPS      X0, (DI)
	VCVTPD2PSY   Y3, X3
	VMOVUPS      X3, (DX)
	VZEROUPPER
	RET

// func lnDxSums4(a, dOut, gamma, mean, inv *float32, cols int, sums *[8]float64)
//
// layerNormDxSums for four rows at once, cols ≥ 1: sums[0:4] are the
// rows' Σ dy and sums[4:8] their Σ dy·xn, dy = float64(dOut·gamma) and
// xn = float64((a-mean)·inv), each row one lane and its columns added in
// order, as the scalar body adds them.
TEXT ·lnDxSums4(SB), NOSPLIT, $0-56
	MOVQ         a+0(FP), SI
	MOVQ         dOut+8(FP), BX
	MOVQ         gamma+16(FP), DX
	MOVQ         mean+24(FP), R8
	MOVQ         inv+32(FP), R9
	MOVQ         cols+40(FP), CX
	MOVQ         sums+48(FP), DI
	VMOVUPS      (R8), X12
	VMOVUPS      (R9), X13
	LEAQ         (CX*4), R11
	LEAQ         (R11)(R11*2), R12
	MOVQ         CX, R10
	ANDQ         $-4, R10
	VXORPD       Y0, Y0, Y0
	VXORPD       Y1, Y1, Y1
	XORQ         AX, AX

dxsums4:
	CMPQ         AX, R10
	JGE          dxsum1
	LOADROWS4(BX, X4, X5, X6, X7)
	TRANSPOSE4(X4, X5, X6, X7, X2, X3, X14, X15)
	LOADROWS4(SI, X8, X9, X10, X11)
	TRANSPOSE4(X8, X9, X10, X11, X2, X3, X14, X15)
	VBROADCASTSS (DX)(AX*4), X2
	VMULPS       X2, X4, X4
	VBROADCASTSS 4(DX)(AX*4), X2
	VMULPS       X2, X5, X5
	VBROADCASTSS 8(DX)(AX*4), X2
	VMULPS       X2, X6, X6
	VBROADCASTSS 12(DX)(AX*4), X2
	VMULPS       X2, X7, X7
	VSUBPS       X12, X8, X8
	VSUBPS       X12, X9, X9
	VSUBPS       X12, X10, X10
	VSUBPS       X12, X11, X11
	VMULPS       X13, X8, X8
	VMULPS       X13, X9, X9
	VMULPS       X13, X10, X10
	VMULPS       X13, X11, X11
	VCVTPS2PD    X4, Y2
	VCVTPS2PD    X8, Y3
	VADDPD       Y2, Y0, Y0
	VMULPD       Y2, Y3, Y3
	VADDPD       Y3, Y1, Y1
	VCVTPS2PD    X5, Y2
	VCVTPS2PD    X9, Y3
	VADDPD       Y2, Y0, Y0
	VMULPD       Y2, Y3, Y3
	VADDPD       Y3, Y1, Y1
	VCVTPS2PD    X6, Y2
	VCVTPS2PD    X10, Y3
	VADDPD       Y2, Y0, Y0
	VMULPD       Y2, Y3, Y3
	VADDPD       Y3, Y1, Y1
	VCVTPS2PD    X7, Y2
	VCVTPS2PD    X11, Y3
	VADDPD       Y2, Y0, Y0
	VMULPD       Y2, Y3, Y3
	VADDPD       Y3, Y1, Y1
	ADDQ         $4, AX
	JMP          dxsums4

dxsum1:
	CMPQ         AX, CX
	JGE          dxsumdone
	LOADCOL4(BX, X4)
	LOADCOL4(SI, X8)
	VBROADCASTSS (DX)(AX*4), X2
	VMULPS       X2, X4, X4
	VSUBPS       X12, X8, X8
	VMULPS       X13, X8, X8
	VCVTPS2PD    X4, Y2
	VCVTPS2PD    X8, Y3
	VADDPD       Y2, Y0, Y0
	VMULPD       Y2, Y3, Y3
	VADDPD       Y3, Y1, Y1
	INCQ         AX
	JMP          dxsum1

dxsumdone:
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	VZEROUPPER
	RET

// func lnNormF32(dst, a, gamma, beta *float32, n int, mean, inv float32)
//
// The LayerNorm forward's normalize pass over one row: dst[c] =
// ((a[c]-mean)·inv)·gamma[c] + beta[c] over n floats, n a multiple of 8
// and > 0, in float32 and in the scalar body's order.
TEXT ·lnNormF32(SB), NOSPLIT, $0-48
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         gamma+16(FP), BX
	MOVQ         beta+24(FP), DX
	MOVQ         n+32(FP), CX
	VBROADCASTSS mean+40(FP), Y14
	VBROADCASTSS inv+44(FP), Y15
	SHLQ         $2, CX
	XORQ         AX, AX

norm8:
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS  Y14, Y0, Y0
	VMULPS  Y15, Y0, Y0
	VMULPS  (BX)(AX*1), Y0, Y0
	VADDPS  (DX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     norm8
	VZEROUPPER
	RET

// func lnGradGB(dGamma, dBeta, a, dOut, mean, inv *float32, rows, stride, n int)
//
// The LayerNorm backward's parameter gradients over columns [0, n), n a
// multiple of 8 and > 0, rows ≥ 1: row r's a and dOut start r·stride
// floats in, and mean[r], inv[r] are its statistics. Row by row, eight
// columns at a time: xn = (a-mean)·inv, dBeta += dOut, dGamma += xn·dOut
// — the scalar body's float32 chain, with its operand order, so each
// column still sums its rows in row order. The rows stream in memory
// order; the n-float sums stay in L1.
TEXT ·lnGradGB(SB), NOSPLIT, $0-72
	MOVQ dGamma+0(FP), DI
	MOVQ dBeta+8(FP), DX
	MOVQ a+16(FP), SI
	MOVQ dOut+24(FP), BX
	MOVQ mean+32(FP), R8
	MOVQ inv+40(FP), R9
	MOVQ rows+48(FP), R10
	MOVQ stride+56(FP), R11
	MOVQ n+64(FP), CX
	SHLQ $2, R11
	SHLQ $2, CX
	XORQ R12, R12

gbrow:
	VBROADCASTSS (R8)(R12*4), Y14
	VBROADCASTSS (R9)(R12*4), Y15
	XORQ         AX, AX

gbcols8:
	VMOVUPS (SI)(AX*1), Y4
	VMOVUPS (BX)(AX*1), Y6
	VSUBPS  Y14, Y4, Y4
	VMULPS  Y15, Y4, Y4
	VMOVUPS (DX)(AX*1), Y2
	VADDPS  Y6, Y2, Y2
	VMOVUPS Y2, (DX)(AX*1)
	VMULPS  Y6, Y4, Y4
	VADDPS  (DI)(AX*1), Y4, Y4
	VMOVUPS Y4, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JLT     gbcols8

	ADDQ R11, SI
	ADDQ R11, BX
	INCQ R12
	CMPQ R12, R10
	JLT  gbrow
	VZEROUPPER
	RET

// func lnDxF32(dst, a, gamma, dOut *float32, n int, mean, inv float32, sumDyN, sumDyXn, cols float64)
//
// The LayerNorm backward's second dx pass over one row, four float64
// lanes at a time, n a multiple of 4 and > 0: dy = float64(dOut·gamma),
// xn = float64((a-mean)·inv), dst = float32(float64(inv)·((dy - sumDyN)
// - (xn·sumDyXn)/cols)), with sumDyN = sumDy/cols from the caller.
TEXT ·lnDxF32(SB), NOSPLIT, $0-72
	MOVQ         dst+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         gamma+16(FP), BX
	MOVQ         dOut+24(FP), DX
	MOVQ         n+32(FP), CX
	VBROADCASTSS mean+40(FP), X14
	VBROADCASTSS inv+44(FP), X15
	VCVTSS2SD    X15, X15, X13
	VBROADCASTSD X13, Y13
	VBROADCASTSD sumDyN+48(FP), Y12
	VBROADCASTSD sumDyXn+56(FP), Y11
	VBROADCASTSD cols+64(FP), Y10

dx4:
	VMOVUPS    (DX), X0
	VMULPS     (BX), X0, X0
	VCVTPS2PD  X0, Y0
	VMOVUPS    (SI), X1
	VSUBPS     X14, X1, X1
	VMULPS     X15, X1, X1
	VCVTPS2PD  X1, Y1
	VSUBPD     Y12, Y0, Y0
	VMULPD     Y11, Y1, Y1
	VDIVPD     Y10, Y1, Y1
	VSUBPD     Y1, Y0, Y0
	VMULPD     Y13, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, BX
	ADDQ       $16, DX
	ADDQ       $16, DI
	SUBQ       $4, CX
	JNZ        dx4
	VZEROUPPER
	RET

// func adamF32(p, grad, m, v *float32, n int, beta1, omb1, beta2, omb2, bc1, bc2, lr, eps float32)
//
// One Adam update over n floats, n a multiple of 8 and > 0, in the
// scalar body's order (train.Adam.Step), eight lanes at a time:
//
//	m = beta1·m + omb1·g
//	v = beta2·v + (omb2·g)·g
//	p = p - (lr·(m/bc1)) / (sqrt(v/bc2) + eps)
//
// with omb1 = 1-beta1 and omb2 = 1-beta2 as float32. Every step rounds
// once, as MULSS, ADDSS, DIVSS and SUBSS do; VSQRTPS is correctly
// rounded, as float32(math.Sqrt(float64(x))) is. No FMA, which would
// round a product and a sum once. Each sum and difference keeps the
// scalar expression's left operand as its first source, so NaN
// payloads propagate as they do there.
TEXT ·adamF32(SB), NOSPLIT, $0-72
	MOVQ         p+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), DX
	MOVQ         v+24(FP), BX
	MOVQ         n+32(FP), CX
	VBROADCASTSS beta1+40(FP), Y8
	VBROADCASTSS omb1+44(FP), Y9
	VBROADCASTSS beta2+48(FP), Y10
	VBROADCASTSS omb2+52(FP), Y11
	VBROADCASTSS bc1+56(FP), Y12
	VBROADCASTSS bc2+60(FP), Y13
	VBROADCASTSS lr+64(FP), Y14
	VBROADCASTSS eps+68(FP), Y15

adamloop:
	VMOVUPS (SI), Y0
	VMULPS  (DX), Y8, Y1
	VMULPS  Y0, Y9, Y2
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (DX)
	VMULPS  (BX), Y10, Y3
	VMULPS  Y0, Y11, Y4
	VMULPS  Y0, Y4, Y4
	VADDPS  Y4, Y3, Y3
	VMOVUPS Y3, (BX)
	VDIVPS  Y12, Y1, Y1
	VDIVPS  Y13, Y3, Y3
	VMULPS  Y1, Y14, Y1
	VSQRTPS Y3, Y3
	VADDPS  Y15, Y3, Y3
	VDIVPS  Y3, Y1, Y1
	VMOVUPS (DI), Y2
	VSUBPS  Y1, Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, BX
	SUBQ    $8, CX
	JNZ     adamloop
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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

