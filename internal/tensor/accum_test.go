package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// axpyMatMulRows and axpyTMatMulRows are the row-axpy loops A·B and
// Aᵀ·B ran on before accumRows: one pass over the output row per k
// step, skipping zero A entries. They stay as the oracle accumRows must
// match bit for bit.
func axpyMatMulRows(out, a, b []float32, start, end, k, n int) {
	for i := start; i < end; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		clear(orow)
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

func axpyTMatMulRows(out, a, b []float32, start, end, k, m, n int) {
	for i := start; i < end; i++ {
		orow := out[i*n : (i+1)*n]
		clear(orow)
		for p := 0; p < k; p++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// oracleOperand draws a [rows, cols] operand in which about a fifth of
// the entries are exactly zero and others are -0 or subnormal, the
// values on which a zero-skipping and a non-skipping chain could part.
func oracleOperand(g *RNG, rows, cols int) *Tensor {
	x := g.Randn(1, rows, cols)
	for i := range x.Data {
		switch g.Intn(10) {
		case 0, 1:
			x.Data[i] = 0
		case 2:
			x.Data[i] = float32(math.Copysign(0, -1))
		case 3:
			x.Data[i] *= 1e-39 // subnormal
		}
	}
	return x
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: elem %d = %v (%#08x), oracle %v (%#08x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// dotTRows is the oracle for A·Bᵀ·alpha, a [m,k] and b [n,k]: each
// element one in-order dot-product chain, then one multiply by alpha.
func dotTRows(out, a, b []float32, m, k, n int, alpha float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			out[i*n+j] = s * alpha
		}
	}
}

// eachPath runs fn on every tier the host has: the AVX-512 tiles, the
// AVX2 tiles with AVX-512 pinned off, and the scalar bodies every other
// host runs. A weight quantized inside fn takes the layout of fn's tier.
func eachPath(t *testing.T, fn func(path string)) {
	t.Helper()
	avx2, avx512, vnni := hasAVX2, hasAVX512, hasVNNI
	defer func() { hasAVX2, hasAVX512, hasVNNI = avx2, avx512, vnni }()
	if avx512 {
		fn("avx512")
	}
	hasAVX512, hasVNNI = false, false
	if avx2 {
		fn("avx2")
	}
	hasAVX2 = false
	fn("scalar")
}

// logAbsentTiers names the tiers eachPath skips on this host.
func logAbsentTiers(t *testing.T) {
	for _, tier := range []struct {
		name string
		has  bool
	}{{"avx512", hasAVX512}, {"avx512 vnni (int8 panels)", hasVNNI}, {"avx2", hasAVX2}} {
		if !tier.has {
			t.Logf("no %s on this host: that tier is not checked", tier.name)
		}
	}
}

// oracleShapes cross every row remainder of the 4-row tile with every
// column remainder of the 16-column tile (n < 16 never reaches it) and
// every k remainder of the scalar body's four-step pass.
var oracleShapes = func() [][3]int {
	var shapes [][3]int
	for _, m := range []int{1, 2, 3, 4, 5, 7} {
		for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 33} {
			for _, k := range []int{1, 3, 4, 5, 7, 64, 257} {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	return shapes
}()

// TestAccumRowsMatchesAxpyOracle: the kernel builds every output
// element as the same chain the scalar body and the row-axpy loops
// build, on every shape remainder, with zeros, -0 and subnormals, and
// when a shard's rows start mid-matrix.
func TestAccumRowsMatchesAxpyOracle(t *testing.T) {
	g := NewRNG(51)
	for _, s := range oracleShapes {
		m, k, n := s[0], s[1], s[2]
		a, at, b := oracleOperand(g, m, k), oracleOperand(g, k, m), oracleOperand(g, k, n)
		got, scalar, want := make([]float32, m*n), make([]float32, m*n), make([]float32, m*n)
		half := m / 2

		accumRows(got, a.Data, b.Data, 0, half, k, n, k, 1)
		accumRows(got, a.Data, b.Data, half, m, k, n, k, 1)
		accumRowsScalar(scalar, a.Data, b.Data, 0, m, k, n, k, 1, 0)
		axpyMatMulRows(want, a.Data, b.Data, 0, m, k, n)
		sameBits(t, fmt.Sprintf("A·B scalar %v", s), scalar, want)
		sameBits(t, fmt.Sprintf("A·B %v", s), got, want)

		accumRows(got, at.Data, b.Data, 0, half, k, n, 1, m)
		accumRows(got, at.Data, b.Data, half, m, k, n, 1, m)
		accumRowsScalar(scalar, at.Data, b.Data, 0, m, k, n, 1, m, 0)
		axpyTMatMulRows(want, at.Data, b.Data, 0, m, k, m, n)
		sameBits(t, fmt.Sprintf("Aᵀ·B scalar %v", s), scalar, want)
		sameBits(t, fmt.Sprintf("Aᵀ·B %v", s), got, want)
	}
}

// TestProductsMatchAxpyOracle drives the oracles through every public
// product entry point — A·B, Aᵀ·B, A·Bᵀ, their batched forms and the
// int8 projection — on the AVX2 tiles and on the scalar bodies, under
// every backend: the fp32 products are one kernel whichever backend is
// active.
func TestProductsMatchAxpyOracle(t *testing.T) {
	logAbsentTiers(t)
	const alpha = 0.125
	for _, name := range fp32Backends {
		withBackend(t, name, func() {
			eachPath(t, func(path string) {
				g := NewRNG(52)
				for _, s := range oracleShapes {
					m, k, n := s[0], s[1], s[2]
					what := fmt.Sprintf("%s/%s %v", name, path, s)
					a, at, b := oracleOperand(g, m, k), oracleOperand(g, k, m), oracleOperand(g, k, n)
					bt := oracleOperand(g, n, k)
					want := make([]float32, m*n)

					axpyMatMulRows(want, a.Data, b.Data, 0, m, k, n)
					sameBits(t, "MatMul "+what, MatMul(a, b).Data, want)
					dst := Full(float32(math.NaN()), m, n)
					MatMulInto(dst, a, b)
					sameBits(t, "MatMulInto "+what, dst.Data, want)

					axpyTMatMulRows(want, at.Data, b.Data, 0, m, k, m, n)
					sameBits(t, "TMatMul "+what, TMatMul(at, b).Data, want)

					dotTRows(want, a.Data, bt.Data, m, k, n, 1)
					sameBits(t, "MatMulT "+what, MatMulT(a, bt).Data, want)

					const batch = 3
					ab, atb := oracleOperand(g, batch*m, k), oracleOperand(g, batch*k, m)
					bb, btb := oracleOperand(g, batch*k, n), oracleOperand(g, batch*n, k)
					ab, atb = ab.Reshape(batch, m, k), atb.Reshape(batch, k, m)
					bb, btb = bb.Reshape(batch, k, n), btb.Reshape(batch, n, k)
					wantB, wantTB := make([]float32, batch*m*n), make([]float32, batch*m*n)
					wantBT, wantBTs := make([]float32, batch*m*n), make([]float32, batch*m*n)
					for bi := 0; bi < batch; bi++ {
						o := bi * m * n
						axpyMatMulRows(wantB[o:], ab.Data[bi*m*k:], bb.Data[bi*k*n:], 0, m, k, n)
						axpyTMatMulRows(wantTB[o:], atb.Data[bi*k*m:], bb.Data[bi*k*n:], 0, m, k, m, n)
						dotTRows(wantBT[o:], ab.Data[bi*m*k:], btb.Data[bi*n*k:], m, k, n, 1)
						dotTRows(wantBTs[o:], ab.Data[bi*m*k:], btb.Data[bi*n*k:], m, k, n, alpha)
					}
					sameBits(t, "BatchMatMul "+what, BatchMatMul(ab, bb).Data, wantB)
					sameBits(t, "BatchTMatMul "+what, BatchTMatMul(atb, bb).Data, wantTB)
					sameBits(t, "BatchMatMulT "+what, BatchMatMulT(ab, btb).Data, wantBT)
					sameBits(t, "BatchMatMulTScaled "+what, BatchMatMulTScaled(ab, btb, alpha).Data, wantBTs)
				}

				for _, rows := range []int{1, 2, 3, 4, 5, 7} {
					for _, k := range []int{1, 3, 4, 5, 15, 16, 17, 33, 64} {
						for _, n := range []int{1, 3, 4, 5, 8, 9} {
							a, w := oracleOperand(g, rows, k), g.Randn(1, k, n)
							for p := 0; p < k; p++ {
								a.Data[p] = 0 // row 0 is all zero: its output row is zero
								if rows > 2 {
									// Row 2's scale is 1: rounding ties, the
									// clamp, -0 and NaN all reach quantClamp.
									a.Data[2*k+p] = quantEdges[p%len(quantEdges)]
								}
							}
							if rows > 2 && k >= 16 {
								// A NaN last in a vector pass cannot hide behind a later max.
								a.Data[2*k+k&^15-1] = float32(math.NaN())
							}
							q := QuantizeWeight(w)
							want := quantMatMulOracle(a, q)
							what := fmt.Sprintf("%s/%s [%d,%d,%d]", name, path, rows, k, n)
							sameBits(t, "QuantMatMul "+what, QuantMatMul(a, q).Data, want)
							dst := Full(float32(math.NaN()), rows, n)
							QuantMatMulInto(dst, a, q)
							sameBits(t, "QuantMatMulInto "+what, dst.Data, want)
						}
					}
				}
			})
		})
	}
}

// quantEdges are activations that, in a row whose absmax is 127,
// quantize through every branch of quantClamp.
var quantEdges = []float32{127, 0.5, -0.5, 1.5, -2.5, 126.5, -126.49999, float32(math.Copysign(0, -1)),
	float32(math.NaN()), 3.4999998, -127, 1e-40, 63.5}

// TestProductsShareWeightsAcrossGoroutines: eight goroutines run every
// product on one shared weight at once — the A·Bᵀ forms each draw a
// pooled panel, the int8 forms pooled scratch, one of them on a weight
// in the VNNI panel layout where the host has it — and each gets the
// single-goroutine bits. Run it under -race.
func TestProductsShareWeightsAcrossGoroutines(t *testing.T) {
	g := NewRNG(54)
	const m, k, n = 9, 40, 33
	w, wt := g.Randn(1, k, n), g.Randn(1, n, k)
	kb := g.Randn(1, 1, n, k)
	q, qp := QuantizeWeight(w), QuantizeWeight(g.Randn(1, k, 64))
	xs := make([]*Tensor, 8)
	for i := range xs {
		xs[i] = g.Randn(1, m, k)
	}
	type outs struct{ ab, abt, scaled, int8, panel []float32 }
	run := func(x *Tensor) outs {
		return outs{
			MatMul(x, w).Data,
			MatMulT(x, wt).Data,
			BatchMatMulTScaled(x.Reshape(1, m, k), kb, 0.5).Data,
			QuantMatMul(x, q).Data,
			QuantMatMul(x, qp).Data,
		}
	}
	want := make([]outs, len(xs))
	for i, x := range xs {
		want[i] = run(x)
	}
	got := make([]outs, len(xs))
	var wg sync.WaitGroup
	for i, x := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				got[i] = run(x)
			}
		}()
	}
	wg.Wait()
	for i := range xs {
		sameBits(t, fmt.Sprintf("goroutine %d MatMul", i), got[i].ab, want[i].ab)
		sameBits(t, fmt.Sprintf("goroutine %d MatMulT", i), got[i].abt, want[i].abt)
		sameBits(t, fmt.Sprintf("goroutine %d BatchMatMulTScaled", i), got[i].scaled, want[i].scaled)
		sameBits(t, fmt.Sprintf("goroutine %d QuantMatMul", i), got[i].int8, want[i].int8)
		sameBits(t, fmt.Sprintf("goroutine %d QuantMatMul (64 channels)", i), got[i].panel, want[i].panel)
	}
}

// TestAccumRowsZeroTimesInf pins the one input on which the kernel and
// the zero-skipping oracle part, as the backend contract states: an A
// entry of exactly 0 facing an infinite B entry. The scalar body (n = 1)
// and the tiles (a 4×16 tile and a one-row strip) both yield NaN.
func TestAccumRowsZeroTimesInf(t *testing.T) {
	for _, mn := range [][2]int{{1, 1}, {5, 16}} {
		m, n := mn[0], mn[1]
		a, b := make([]float32, m*2), make([]float32, 2*n)
		for i := 0; i < m; i++ {
			a[i*2], a[i*2+1] = 0, 1
		}
		for j := 0; j < n; j++ {
			b[j], b[n+j] = float32(math.Inf(1)), 2
		}
		got, want := make([]float32, m*n), make([]float32, m*n)
		accumRows(got, a, b, 0, m, 2, n, 2, 1)
		axpyMatMulRows(want, a, b, 0, m, 2, n)
		for i := range got {
			if !math.IsNaN(float64(got[i])) || want[i] != 2 {
				t.Fatalf("[%d,2,%d] elem %d: 0·Inf + 1·2: kernel %v (want NaN), oracle %v (want 2)",
					m, n, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkAccumKernel times the kernel against the oracle in one
// process, at the frozen-backbone up-projection shape
// [512,256]·[256,1024] on 2 workers. CI's perf-gates job asserts
// oracle ÷ kernel ≥ 3 from the two ns/op figures: the AVX2 tiles read
// 8–16× on a 2-core x86-64 host, so a lost SIMD path fails the gate.
func BenchmarkAccumKernel(b *testing.B) {
	const m, k, n = 512, 256, 1024
	g := NewRNG(53)
	x, w := g.Randn(1, m, k), g.Randn(1, k, n)
	out := New(m, n)
	prev := SetMaxWorkers(2)
	defer SetMaxWorkers(prev)
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MatMulInto(out, x, w)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parallelFor(m, func(start, end int) {
				axpyMatMulRows(out.Data, x.Data, w.Data, start, end, k, n)
			})
		}
	})
}
