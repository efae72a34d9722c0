package parallel

import (
	"runtime"
	"testing"

	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/tensor"
	"pac/internal/train"
)

// TestDPStepAllocatesLessThanOneGradient: a cached-epoch step of a
// two-rank DPGroup at the benchmark's Bench side-network size (168,066
// adapter floats), fed from fixed taps as the activation cache feeds it,
// allocates fewer bytes than one rank's side start state a_0 ([8, 32,
// 64] floats, 64 KiB), a tenth of one flat gradient. The gradient
// buffers, the all-reduce's frames, the decoded chunks and a_0 (one
// read-only zero buffer per side network) are all reused, so what is
// left is headers and small slices (≈ 13 KB); a fresh a_0 per forward
// read ≈ 144 KB a step, and flattening into fresh slices and a codec
// that allocates read ≈ 4.3 MB.
func TestDPStepAllocatesLessThanOneGradient(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool Puts, so allocation figures move")
	}
	cfg := model.Config{Name: "Bench", Vocab: 256, Layers: 4, Heads: 4, Hidden: 256,
		FFDim: 1024, MaxSeq: 64, NumClasses: 2, Seed: 1}
	m := model.New(cfg)
	g := NewDPGroup(2, func(int) (*peft.Parallel, train.Optimizer) {
		tech := peft.NewParallel(m, peft.Options{Reduction: 4})
		return tech, train.NewAdam(tech.Trainable(), 1e-3)
	})
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 16, SeqLen: 32, Vocab: cfg.Vocab, Seed: 2})
	b := data.BatchOf(ds.Examples)
	taps := make([][]*tensor.Tensor, g.Size())
	for r, shard := range b.Split(g.Size()) {
		taps[r] = g.Techs[r].Forward(shard.Enc, shard.Dec, shard.Lens, false).Taps
	}
	g.Forward = func(rank int, _ *data.Batch, _ bool) *peft.Result {
		in := make([]*tensor.Tensor, len(taps[rank]))
		for i, tap := range taps[rank] {
			in[i] = tap.Clone()
		}
		return &peft.Result{Logits: g.Techs[rank].ForwardFromTaps(in), Taps: in}
	}
	for i := 0; i < 3; i++ { // gradients, moments, pool and frames reach their steady state
		mustStep(t, g, b)
	}
	const steps = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		mustStep(t, g, b)
	}
	runtime.ReadMemStats(&after)
	perStep := (after.TotalAlloc - before.TotalAlloc) / steps
	gradBytes := uint64(4 * len(g.flat[0]))
	startBytes := uint64(4 * len(ds.Examples) / g.Size() * 32 * cfg.Hidden / 4)
	t.Logf("%d B allocated per step; one rank's a_0 is %d B, one flat gradient %d B", perStep, startBytes, gradBytes)
	if perStep >= startBytes {
		t.Fatalf("a DP step allocated %d B, not less than one rank's side start state (%d B)", perStep, startBytes)
	}
}
