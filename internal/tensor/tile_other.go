//go:build !amd64

package tensor

// Non-amd64 builds always take the scalar bodies. hasAVX2, hasFMA,
// hasAVX512 and hasVNNI are variables only so that tests can pin the
// scalar path on every host.
var hasAVX2, hasFMA, hasAVX512, hasVNNI = false, false, false, false

func tileF32x4(o, a, b *float32, k, n, sa, sp int) { panic("tensor: AVX2 tile without AVX2") }

func tileF32x4z(o, a, b *float32, k, n, sa, sp int) { panic("tensor: AVX-512 tile without AVX-512") }

func rowF32(o, a, b *float32, k, n, sp, cols int) { panic("tensor: AVX2 tile without AVX2") }

func tileInt8x2(o0, o1 *float32, a0, a1, w *int8, k, k16, n int) {
	panic("tensor: AVX2 tile without AVX2")
}

func tileInt8x4v(o0, o1, o2, o3 *float32, a0, a1, a2, a3, w *int8, comp *int32, k, panels int) {
	panic("tensor: VNNI tile without AVX512-VNNI")
}

func absMaxF32(a *float32, n int) float32 { panic("tensor: AVX2 tile without AVX2") }

func quantizeF32(q *int8, a *float32, n int, inv float32) { panic("tensor: AVX2 tile without AVX2") }

func dequantF32(o, scale *float32, n int, rscale float32) { panic("tensor: AVX2 tile without AVX2") }

func geluF32(dst, a *float32, n int) { panic("tensor: AVX2 kernel without AVX2") }

func geluGradF32(dst, pre, grad *float32, n int) { panic("tensor: AVX2 kernel without AVX2") }

func tanhF64(dst, a *float64, n int) { panic("tensor: AVX2 kernel without AVX2") }

func geluF64(dst, a *float64, n int) { panic("tensor: AVX2 kernel without AVX2") }

func geluGradF64(dst, a *float64, n int) { panic("tensor: AVX2 kernel without AVX2") }

func lnStats4(a *float32, cols int, eps float32, mean, invStd *float32) {
	panic("tensor: AVX2 kernel without AVX2")
}

func lnDxSums4(a, dOut, gamma, mean, inv *float32, cols int, sums *[8]float64) {
	panic("tensor: AVX2 kernel without AVX2")
}

func lnNormF32(dst, a, gamma, beta *float32, n int, mean, inv float32) {
	panic("tensor: AVX2 kernel without AVX2")
}

func lnGradGB(dGamma, dBeta, a, dOut, mean, inv *float32, rows, stride, n int) {
	panic("tensor: AVX2 kernel without AVX2")
}

func lnDxF32(dst, a, gamma, dOut *float32, n int, mean, inv float32, sumDyN, sumDyXn, cols float64) {
	panic("tensor: AVX2 kernel without AVX2")
}

func adamF32(p, grad, m, v *float32, n int, beta1, omb1, beta2, omb2, bc1, bc2, lr, eps float32) {
	panic("tensor: AVX2 kernel without AVX2")
}
