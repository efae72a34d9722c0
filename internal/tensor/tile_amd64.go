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

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2 gates the tiles. Detection follows the Intel manual: OSXSAVE
// + AVX in CPUID.1:ECX, YMM state enabled in XCR0, AVX2 in
// CPUID.7.0:EBX. The scalar bodies stay the path on anything older.
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if lo, _ := xgetbv0(); lo&0x6 != 0x6 { // XMM and YMM state saved by the OS
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	return b7&(1<<5) != 0
}
