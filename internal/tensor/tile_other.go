//go:build !amd64

package tensor

// Non-amd64 builds always take the scalar bodies. hasAVX2 is a variable
// only so that tests can pin the scalar path on every host.
var hasAVX2 = false

func tileF32x4(o, a, b *float32, k, n, sa, sp int) { panic("tensor: AVX2 tile without AVX2") }

func rowF32(o, a, b *float32, k, n, sp, cols int) { panic("tensor: AVX2 tile without AVX2") }

func tileInt8x2(o0, o1 *float32, a0, a1, w *int8, k, k16, n int) {
	panic("tensor: AVX2 tile without AVX2")
}

func absMaxF32(a *float32, n int) float32 { panic("tensor: AVX2 tile without AVX2") }

func quantizeF32(q *int8, a *float32, n int, inv float32) { panic("tensor: AVX2 tile without AVX2") }

func dequantF32(o, scale *float32, n int, rscale float32) { panic("tensor: AVX2 tile without AVX2") }
