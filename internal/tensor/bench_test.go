package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The kernels are the compute substrate of every engine; these
// benchmarks track matmul throughput and the parallel-for scaling that
// the hpc-parallel design relies on.

func benchMatMul(b *testing.B, n int) {
	g := NewRNG(1)
	x := g.Randn(1, n, n)
	y := g.Randn(1, n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkMatMul64(b *testing.B)  { benchMatMul(b, 64) }
func BenchmarkMatMul128(b *testing.B) { benchMatMul(b, 128) }
func BenchmarkMatMul256(b *testing.B) { benchMatMul(b, 256) }

func BenchmarkMatMulWorkers(b *testing.B) {
	g := NewRNG(2)
	x := g.Randn(1, 192, 192)
	y := g.Randn(1, 192, 192)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			prev := SetMaxWorkers(w)
			defer SetMaxWorkers(prev)
			for i := 0; i < b.N; i++ {
				MatMul(x, y)
			}
		})
	}
}

func BenchmarkBatchMatMulAttentionShape(b *testing.B) {
	// The attention-score product: Q·Kᵀ/√dh for Q and K both
	// [batch·heads, seq, dh] = [32, 64, 32], the A·Bᵀ path through a
	// transposed panel.
	g := NewRNG(3)
	q := g.Randn(1, 32, 64, 32)
	k := g.Randn(1, 32, 64, 32)
	alpha := float32(1 / math.Sqrt(32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchMatMulTScaled(q, k, alpha)
	}
}

func BenchmarkSoftmax(b *testing.B) {
	g := NewRNG(4)
	x := g.Randn(1, 512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(x)
	}
}

// eachKernel runs fn as a "vector" sub-benchmark on the AVX2 kernels,
// where the host has them, and as a "scalar" one on the scalar bodies,
// on one worker, so the two ns/op figures compare the kernels alone.
func eachKernel(b *testing.B, fn func(b *testing.B)) {
	prev := SetMaxWorkers(1)
	defer SetMaxWorkers(prev)
	avx2, avx512, vnni := hasAVX2, hasAVX512, hasVNNI
	defer func() { hasAVX2, hasAVX512, hasVNNI = avx2, avx512, vnni }()
	b.Run("vector", fn)
	hasAVX2, hasAVX512, hasVNNI = false, false, false
	b.Run("scalar", fn)
}

// BenchmarkGELUKernel times GELUInto then GELUGradInto over a [256,64]
// pre-activation at the side network's add-GELU width. CI's perf-gates
// job asserts scalar ÷ vector ≥ 3 from the two ns/op figures: the
// vector kernels read 4.6–6.4× on a 2-core AVX2 + FMA host, and a host
// without them runs the scalar body on both legs.
func BenchmarkGELUKernel(b *testing.B) {
	g := NewRNG(55)
	x, dy := g.Randn(1, 256, 64), g.Randn(1, 256, 64)
	out := New(256, 64)
	eachKernel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			GELUInto(out, x)
			GELUGradInto(out, x, dy)
		}
	})
}

// BenchmarkLayerNormKernel times each LayerNorm pass at [256,256]:
// the forward, the dγ/dβ pass alone (the backward of a frozen input)
// and the full backward.
func BenchmarkLayerNormKernel(b *testing.B) {
	const rows, cols = 256, 256
	g := NewRNG(5)
	x, dy := g.Randn(1, rows, cols), g.Randn(1, rows, cols)
	gamma, beta := g.Randn(1, cols), g.Randn(1, cols)
	y, stats := LayerNormForward(x, gamma, beta, 1e-5)
	dx, dGamma, dBeta := New(rows, cols), New(cols), New(cols)
	b.Run("forward", func(b *testing.B) {
		eachKernel(b, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				PutTensor(y)
				y = LayerNormForwardStats(x, gamma, beta, 1e-5, stats)
			}
		})
	})
	b.Run("gammabeta", func(b *testing.B) {
		eachKernel(b, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LayerNormBackwardInto(nil, dGamma, dBeta, x, gamma, dy, stats)
			}
		})
	})
	b.Run("backward", func(b *testing.B) {
		eachKernel(b, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LayerNormBackwardInto(dx, dGamma, dBeta, x, gamma, dy, stats)
			}
		})
	})
}

func TestMatMulParallelSpeedupOrCorrectnessAtLeast(t *testing.T) {
	// Worker scaling must never change results; speedup is hardware
	// dependent, so only correctness is asserted across worker counts.
	g := NewRNG(6)
	x := g.Randn(1, 96, 96)
	y := g.Randn(1, 96, 96)
	prev := SetMaxWorkers(1)
	want := MatMul(x, y)
	for _, w := range []int{2, 3, 7, 16} {
		SetMaxWorkers(w)
		got := MatMul(x, y)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				SetMaxWorkers(prev)
				t.Fatalf("workers=%d changed results", w)
			}
		}
	}
	SetMaxWorkers(prev)
}
