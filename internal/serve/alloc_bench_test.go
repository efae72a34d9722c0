package serve

import (
	"context"
	"testing"

	"pac/internal/model"
	"pac/internal/peft"
)

// BenchmarkServeClassifyRequest tracks allocations and latency of one
// batched classification request end to end (frozen backbone + side
// network + argmax). The CI perf-gates job watches this number.
func BenchmarkServeClassifyRequest(b *testing.B) {
	cfg := model.Tiny()
	m := model.New(cfg)
	s := NewServer(peft.NewParallel(m, peft.Options{Reduction: 4}), cfg)
	enc := [][]int{{2, 3, 4, 5, 6, 7, 8, 9}, {9, 8, 7, 6, 5, 4, 3, 2}}
	lens := []int{8, 8}
	ctx := context.Background()
	for i := 0; i < 3; i++ { // warm the pool
		if _, err := s.ClassifyFor(ctx, AnonUser, enc, lens); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ClassifyFor(ctx, AnonUser, enc, lens); err != nil {
			b.Fatal(err)
		}
	}
}
