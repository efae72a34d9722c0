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

func BenchmarkLayerNorm(b *testing.B) {
	g := NewRNG(5)
	x := g.Randn(1, 1024, 256)
	gamma, beta := Ones(256), New(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LayerNormForward(x, gamma, beta, 1e-5)
	}
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
