package peft

import (
	"testing"

	"pac/internal/model"
	"pac/internal/tensor"
)

// BenchmarkBackboneTaps measures the frozen-backbone forward — the
// cache-fill pass of PAC's phase 1 and the whole of a cache miss — under
// the fp32 reference backend and the int8 backend, on a matmul-dominant
// model (hidden 256). CI's perf-gates job asserts int8 ≥ 1.5× fp32 from
// the two ns/op figures. One model instance serves both legs: its int8
// weight forms sit unused while generic is active.
func BenchmarkBackboneTaps(b *testing.B) {
	cfg := model.Config{Name: "Bench256", Vocab: 64, Layers: 2, Heads: 4,
		Hidden: 256, FFDim: 512, MaxSeq: 32, NumClasses: 2, Seed: 1}
	pa := NewParallel(model.New(cfg), Options{Reduction: 4})
	pa.QuantizeBackbone()
	enc := [][]int{{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17},
		{17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2}}
	dec := [][]int{{0}, {0}}
	lens := []int{16, 16}
	fill := func() {
		for _, tp := range pa.BackboneTaps(enc, dec, lens) {
			tensor.PutTensor(tp)
		}
	}

	prev := tensor.ActiveBackend().Name()
	defer func() {
		if err := tensor.SetBackend(prev); err != nil {
			b.Fatal(err)
		}
	}()
	for _, leg := range []struct{ name, backend string }{{"fp32", "generic"}, {"int8", "int8"}} {
		b.Run(leg.name, func(b *testing.B) {
			if err := tensor.SetBackend(leg.backend); err != nil {
				b.Fatal(err)
			}
			fill() // warm the pool (and the quantization scratch) per backend
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fill()
			}
		})
	}
}
