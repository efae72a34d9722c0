//go:build amd64

package tensor

// The AVX2 tiles in tile_amd64.s. Callers check hasAVX2 and bounds
// first: the assembly trusts its pointers and strides.

//go:noescape
func tileF32x4(o, a, b *float32, k, n, sa, sp int)

//go:noescape
func rowF32(o, a, b *float32, k, n, sp, cols int)

//go:noescape
func tileInt8x2(o0, o1 *float32, a0, a1, w *int8, k, k16, n int)

//go:noescape
func absMaxF32(a *float32, n int) float32

//go:noescape
func quantizeF32(q *int8, a *float32, n int, inv float32)

//go:noescape
func dequantF32(o, scale *float32, n int, rscale float32)

//go:noescape
func geluF32(dst, a *float32, n int)

//go:noescape
func geluGradF32(dst, pre, grad *float32, n int)

// tanhF64, geluF64 and geluGradF64 run the GELU kernels' float64 cores
// on float64 slices; only the tests call them.

//go:noescape
func tanhF64(dst, a *float64, n int)

//go:noescape
func geluF64(dst, a *float64, n int)

//go:noescape
func geluGradF64(dst, a *float64, n int)

//go:noescape
func lnStats4(a *float32, cols int, eps float32, mean, invStd *float32)

//go:noescape
func lnDxSums4(a, dOut, gamma, mean, inv *float32, cols int, sums *[8]float64)

//go:noescape
func lnNormF32(dst, a, gamma, beta *float32, n int, mean, inv float32)

//go:noescape
func lnGradGB(dGamma, dBeta, a, dOut, mean, inv *float32, rows, stride, n int)

//go:noescape
func lnDxF32(dst, a, gamma, dOut *float32, n int, mean, inv float32, sumDyN, sumDyXn, cols float64)

//go:noescape
func adamF32(p, grad, m, v *float32, n int, beta1, omb1, beta2, omb2, bc1, bc2, lr, eps float32)

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2 gates the tiles and the LayerNorm passes. Detection follows
// the Intel manual: OSXSAVE + AVX in CPUID.1:ECX, YMM state enabled in
// XCR0, AVX2 in CPUID.7.0:EBX. The scalar bodies stay the path on
// anything older.
//
// hasFMA is the math package's useFMA, detected the same way (FMA +
// AVX + OSXSAVE in CPUID.1:ECX, YMM state in XCR0): exactly when it
// holds, math.Exp takes its fused branch, which the GELU kernels replay.
// They run when hasAVX2 && hasFMA.
var hasAVX2, hasFMA = detectAVX()

func detectAVX() (avx2, fma bool) {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 1 {
		return false, false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const fmaBit = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false, false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 { // XMM and YMM state saved by the OS
		return false, false
	}
	if maxID >= 7 {
		_, b7, _, _ := cpuidex(7, 0)
		avx2 = b7&(1<<5) != 0
	}
	return avx2, c1&fmaBit != 0
}
