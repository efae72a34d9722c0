package tensor

import (
	"fmt"
	"math"
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

var oracleShapes = func() [][3]int {
	var shapes [][3]int
	for _, k := range []int{1, 3, 4, 5, 7, 64, 257} {
		for _, mn := range [][2]int{{1, 1}, {1, 9}, {5, 3}, {7, 13}} {
			shapes = append(shapes, [3]int{mn[0], k, mn[1]})
		}
	}
	return shapes
}()

// TestAccumRowsMatchesAxpyOracle: the four-step kernel builds every
// output element as the same chain the row-axpy loops build, on every k
// remainder, m = 1, odd m and n, zeros, -0 and subnormals.
func TestAccumRowsMatchesAxpyOracle(t *testing.T) {
	g := NewRNG(51)
	for _, s := range oracleShapes {
		m, k, n := s[0], s[1], s[2]
		a, at, b := oracleOperand(g, m, k), oracleOperand(g, k, m), oracleOperand(g, k, n)
		got, want := make([]float32, m*n), make([]float32, m*n)

		accumRows(got, a.Data, b.Data, 0, m, k, n, k, 1)
		axpyMatMulRows(want, a.Data, b.Data, 0, m, k, n)
		sameBits(t, fmt.Sprintf("A·B %v", s), got, want)

		accumRows(got, at.Data, b.Data, 0, m, k, n, 1, m)
		axpyTMatMulRows(want, at.Data, b.Data, 0, m, k, m, n)
		sameBits(t, fmt.Sprintf("Aᵀ·B %v", s), got, want)
	}
}

// TestProductsMatchAxpyOracle drives the oracle through every public
// A·B and Aᵀ·B entry point, under every backend: the fp32 products are
// one kernel whichever backend is active.
func TestProductsMatchAxpyOracle(t *testing.T) {
	for _, name := range fp32Backends {
		withBackend(t, name, func() {
			g := NewRNG(52)
			for _, s := range oracleShapes {
				m, k, n := s[0], s[1], s[2]
				a, at, b := oracleOperand(g, m, k), oracleOperand(g, k, m), oracleOperand(g, k, n)
				want := make([]float32, m*n)

				axpyMatMulRows(want, a.Data, b.Data, 0, m, k, n)
				sameBits(t, fmt.Sprintf("%s MatMul %v", name, s), MatMul(a, b).Data, want)
				dst := Full(float32(math.NaN()), m, n)
				MatMulInto(dst, a, b)
				sameBits(t, fmt.Sprintf("%s MatMulInto %v", name, s), dst.Data, want)

				axpyTMatMulRows(want, at.Data, b.Data, 0, m, k, m, n)
				sameBits(t, fmt.Sprintf("%s TMatMul %v", name, s), TMatMul(at, b).Data, want)
			}

			const batch, m, k, n = 3, 5, 11, 7
			a, at, b := oracleOperand(g, batch*m, k), oracleOperand(g, batch*k, m), oracleOperand(g, batch*k, n)
			a, at, b = a.Reshape(batch, m, k), at.Reshape(batch, k, m), b.Reshape(batch, k, n)
			want, wantT := make([]float32, batch*m*n), make([]float32, batch*m*n)
			for bi := 0; bi < batch; bi++ {
				ob := want[bi*m*n : (bi+1)*m*n]
				axpyMatMulRows(ob, a.Data[bi*m*k:(bi+1)*m*k], b.Data[bi*k*n:(bi+1)*k*n], 0, m, k, n)
				ob = wantT[bi*m*n : (bi+1)*m*n]
				axpyTMatMulRows(ob, at.Data[bi*k*m:(bi+1)*k*m], b.Data[bi*k*n:(bi+1)*k*n], 0, m, k, m, n)
			}
			sameBits(t, name+" BatchMatMul", BatchMatMul(a, b).Data, want)
			sameBits(t, name+" BatchTMatMul", BatchTMatMul(at, b).Data, wantT)
		})
	}
}

// TestAccumRowsZeroTimesInf pins the one input on which the kernel and
// the zero-skipping oracle part, as the backend contract states: an A
// entry of exactly 0 facing an infinite B entry.
func TestAccumRowsZeroTimesInf(t *testing.T) {
	a := []float32{0, 1}
	b := []float32{float32(math.Inf(1)), 2}
	got, want := make([]float32, 1), make([]float32, 1)
	accumRows(got, a, b, 0, 1, 2, 1, 2, 1)
	axpyMatMulRows(want, a, b, 0, 1, 2, 1)
	if !math.IsNaN(float64(got[0])) || want[0] != 2 {
		t.Fatalf("0·Inf + 1·2: kernel %v (want NaN), oracle %v (want 2)", got[0], want[0])
	}
}

// BenchmarkAccumKernel times the kernel against the oracle in one
// process, at the frozen-backbone up-projection shape
// [512,256]·[256,1024] on 2 workers. CI's perf-gates job asserts
// oracle ÷ kernel ≥ 1.25 from the two ns/op figures.
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
