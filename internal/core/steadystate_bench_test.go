package core

import (
	"testing"

	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/tensor"
	"pac/internal/train"
)

// steadyState builds a framework, fills the activation cache with one
// hybrid epoch, redistributes, and returns everything needed to run
// steady-state cached-activation training steps (the paper's epoch ≥ 2
// path).
func steadyState(b testing.TB) (*Framework, *peft.Parallel, train.Optimizer, *data.Batch) {
	b.Helper()
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 8, SeqLen: 16, Vocab: 64, Seed: 33})
	f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
		Stages: 1, Lanes: 1, LR: 0.01, Adam: true})
	loader := data.NewLoader(ds, 8, 1)
	mustPhase1(b, f, loader, 0)
	if err := f.Redistribute(ds); err != nil {
		b.Fatal(err)
	}
	pa := f.Reference()
	opt := train.NewAdam(pa.Trainable(), 0.01)
	mb := loader.Epoch(1)[0]
	return f, pa, opt, mb
}

// BenchmarkCachedAdapterStep tracks allocations and latency of the
// steady-state training step (Framework.SteadyStep — what each DP
// worker runs per step during epochs ≥ 2). The CI perf-gates job
// enforces an allocation budget on this benchmark.
func BenchmarkCachedAdapterStep(b *testing.B) {
	f, pa, opt, mb := steadyState(b)
	for i := 0; i < 3; i++ { // warm the pool and the activation cache
		f.SteadyStep(pa, opt, mb)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.SteadyStep(pa, opt, mb)
	}
}

// TestSteadyStepReturnsItsBuffers: a hit-only cached step hands back
// every pooled buffer it checks out — graph, loss value, batched taps —
// and its zero side state is not pooled, so a loop of them leaves the
// pool's outstanding bytes exactly where they were.
func TestSteadyStepReturnsItsBuffers(t *testing.T) {
	f, pa, opt, mb := steadyState(t)
	f.SteadyStep(pa, opt, mb) // the optimizer's state and the gradients are allocated once
	before := tensor.ReadPoolStats().BytesOutstanding
	for i := 0; i < 10; i++ {
		f.SteadyStep(pa, opt, mb)
	}
	if grew := tensor.ReadPoolStats().BytesOutstanding - before; grew != 0 {
		t.Fatalf("10 hit-only steps left %d pooled bytes checked out", grew)
	}
	if f.Recomputed() != 0 {
		t.Fatal("the steps missed the cache")
	}
}
