package tensor

// int8Backend is the quantized backend. Quantized() reports true, which
// makes frozen-weight projections (nn.Linear with a QuantizedWeight
// attached) run QuantMatMulInto instead of the fp32 affine. Everything
// trainable — adapters, optimizer state, every gradient — never sees
// that flag and stays fp32, on the register-blocked loops below: the
// *accumulating* kernels MatMulRows and TMatMulRows process four
// k-steps per pass over the output row — one read-modify-write of out
// per four rows of b instead of one per row. The A·Bᵀ kernel is
// inherited unchanged: the shared matmulTRows is already 4×4
// register-blocked and measured faster than wider unrolls on this
// repo's shapes (register pressure beats ILP in the gc backend).
// Reduction trees differ from generic where overridden, so results can
// differ in the last ulp; transcendental kernels (GELU, softmax) are
// inherited from generic unchanged, keeping those paths bit-identical
// across both backends.
type int8Backend struct{ genericBackend }

func (int8Backend) Name() string    { return "int8" }
func (int8Backend) Quantized() bool { return true }

func (int8Backend) MatMulRows(out, a, b []float32, start, end, k, n int) {
	for i := start; i < end; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		clear(orow)
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b[p*n : p*n+n]
			b1 := b[(p+1)*n : (p+1)*n+n]
			b2 := b[(p+2)*n : (p+2)*n+n]
			b3 := b[(p+3)*n : (p+3)*n+n]
			for j := range orow {
				orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

func (int8Backend) TMatMulRows(out, a, b []float32, start, end, k, m, n int) {
	for i := start; i < end; i++ {
		orow := out[i*n : (i+1)*n]
		clear(orow)
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := a[p*m+i], a[(p+1)*m+i], a[(p+2)*m+i], a[(p+3)*m+i]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := b[p*n : p*n+n]
			b1 := b[(p+1)*n : (p+1)*n+n]
			b2 := b[(p+2)*n : (p+2)*n+n]
			b3 := b[(p+3)*n : (p+3)*n+n]
			for j := range orow {
				orow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; p < k; p++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			brow := b[p*n : p*n+n]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}
