package tensor

import (
	"fmt"
	"testing"
)

// TestProductTiersBitwise holds MatMul, MatMulT, TMatMul and QuantMatMul
// to their oracles bit for bit on every tier the host has (eachPath:
// AVX-512, AVX2 with AVX-512 pinned off, scalar), over row counts on
// both sides of the 4-row tiles, k on both sides of the 16-step int8
// tile and the 4-step panel groups, and n on both sides of the 16- and
// 32-column tiles and the 32-channel panels. Row 0 of every A is all
// zero; at k = 1024 row 1 and weight channels 0 and 1 quantize to ±127
// throughout, the largest int32 sums an int8 product makes there. Each
// tier quantizes its own weight, so the panel layout is checked against
// the row layout's oracle.
func TestProductTiersBitwise(t *testing.T) {
	logAbsentTiers(t)
	g := NewRNG(57)
	for _, k := range []int{3, 16, 17, 256, 1024} {
		for _, n := range []int{2, 16, 31, 32, 48, 64, 256, 1024} {
			b, bt, w := oracleOperand(g, k, n), oracleOperand(g, n, k), g.Randn(1, k, n)
			for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 24, 32} {
				a, at := oracleOperand(g, m, k), oracleOperand(g, k, m)
				clear(a.Data[:k])
				for p := 0; p < k; p++ {
					at.Data[p*m] = 0 // Aᵀ's row 0 is column 0 of at
				}
				if k == 1024 {
					for p := 0; p < k; p++ {
						s := float32(1 - 2*(p%2))
						if m > 1 {
							a.Data[k+p] = 3 * s
						}
						w.Data[p*n] = s
						if n > 1 {
							w.Data[p*n+1] = -s
						}
					}
				}
				ab, atb, abt := make([]float32, m*n), make([]float32, m*n), make([]float32, m*n)
				axpyMatMulRows(ab, a.Data, b.Data, 0, m, k, n)
				axpyTMatMulRows(atb, at.Data, b.Data, 0, m, k, m, n)
				dotTRows(abt, a.Data, bt.Data, m, k, n, 1)
				vnni := hasVNNI
				hasVNNI = false // the oracle's weight in the row layout
				qw := quantMatMulOracle(a, QuantizeWeight(w))
				hasVNNI = vnni

				eachPath(t, func(tier string) {
					what := fmt.Sprintf("%s [%d,%d,%d]", tier, m, k, n)
					sameBits(t, "MatMul "+what, MatMul(a, b).Data, ab)
					sameBits(t, "TMatMul "+what, TMatMul(at, b).Data, atb)
					sameBits(t, "MatMulT "+what, MatMulT(a, bt).Data, abt)
					q := QuantizeWeight(w)
					if panel := q.comp != nil; panel != (tier == "avx512" && hasVNNI && k%4 == 0 && n%32 == 0) {
						t.Fatalf("QuantMatMul %s: panel layout %v", what, panel)
					}
					sameBits(t, "QuantMatMul "+what, QuantMatMul(a, q).Data, qw)
				})
			}
		}
	}
}
