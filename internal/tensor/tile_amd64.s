// AVX2 register tiles for every fp32 and int8 product, plus the CPUID
// probes that gate them. See tile_amd64.go.

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

