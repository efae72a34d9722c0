package parallel

import (
	"context"
	"math"
	"sync"
	"testing"

	"pac/internal/acache"
	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/tensor"
	"pac/internal/train"
)

const lr = 0.05

// stepper is the one door a training step has on every engine.
type stepper interface {
	StepCtx(ctx context.Context, b *data.Batch) (float64, error)
}

// mustStep runs one step over a fabric the test expects to be reliable.
func mustStep(t testing.TB, e stepper, b *data.Batch) float64 {
	t.Helper()
	loss, err := e.StepCtx(context.Background(), b)
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	return loss
}

// mustEpoch is mustStep for a whole loader epoch of a DP or hybrid engine.
func mustEpoch(t testing.TB, e interface {
	TrainEpochFromCtx(ctx context.Context, loader *data.Loader, epoch, start int) (float64, error)
}, loader *data.Loader, epoch int) float64 {
	t.Helper()
	loss, err := e.TrainEpochFromCtx(context.Background(), loader, epoch, 0)
	if err != nil {
		t.Fatalf("epoch %d: %v", epoch, err)
	}
	return loss
}

func makeBatch(size int) *data.Batch {
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: size, SeqLen: 8, Vocab: 64, Seed: 11})
	return data.BatchOf(ds.Examples)
}

// singleDeviceStep trains one batch on a fresh replica and returns its
// flattened trainable parameters afterwards.
func singleDeviceStep(t *testing.T, kind peft.Kind, b *data.Batch) ([]float32, float64) {
	t.Helper()
	m := model.New(model.Tiny())
	tech := peft.New(kind, m, peft.Options{Reduction: 4, LoRARank: 4})
	tr := &train.Trainer{Tech: tech, Opt: train.NewSGD(tech.Trainable(), lr, 0, 0)}
	loss := tr.TrainBatch(b)
	return nn.FlattenParams(tech.Trainable()), loss
}

func paramsClose(t *testing.T, got, want []float32, tol float64, msg string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: param count %d vs %d", msg, len(got), len(want))
	}
	for i := range got {
		if math.Abs(float64(got[i]-want[i])) > tol {
			t.Fatalf("%s: param %d: %v vs %v", msg, i, got[i], want[i])
		}
	}
}

func TestDataParallelMatchesSingleDevice(t *testing.T) {
	b := makeBatch(8)
	for _, kind := range peft.AllKinds() {
		want, wantLoss := singleDeviceStep(t, kind, b)
		g := NewDPGroup(2, func(rank int) (peft.Technique, train.Optimizer) {
			m := model.New(model.Tiny())
			tech := peft.New(kind, m, peft.Options{Reduction: 4, LoRARank: 4})
			return tech, train.NewSGD(tech.Trainable(), lr, 0, 0)
		})
		loss := mustStep(t, g, b)
		if math.Abs(loss-wantLoss) > 1e-4 {
			t.Fatalf("%s: DP loss %v vs single %v", kind, loss, wantLoss)
		}
		paramsClose(t, nn.FlattenParams(g.Techs[0].Trainable()), want, 1e-4, kind.String())
		if !g.InSync() {
			t.Fatalf("%s: replicas diverged", kind)
		}
	}
}

func TestDataParallelFourWorkersUnevenBatch(t *testing.T) {
	b := makeBatch(10) // shards of 3,3,2,2
	want, _ := singleDeviceStep(t, peft.ParallelAdapters, b)
	g := NewDPGroup(4, func(rank int) (peft.Technique, train.Optimizer) {
		m := model.New(model.Tiny())
		tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
		return tech, train.NewSGD(tech.Trainable(), lr, 0, 0)
	})
	mustStep(t, g, b)
	paramsClose(t, nn.FlattenParams(g.Techs[0].Trainable()), want, 1e-4, "uneven DP")
}

func TestDataParallelEpochConverges(t *testing.T) {
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 128, SeqLen: 8, Vocab: 64, Seed: 12})
	g := NewDPGroup(2, func(rank int) (peft.Technique, train.Optimizer) {
		m := model.New(model.Tiny())
		tech := peft.New(peft.Full, m, peft.Options{})
		return tech, train.NewAdam(tech.Trainable(), 3e-3)
	})
	loader := data.NewLoader(ds, 16, 1)
	first := mustEpoch(t, g, loader, 0)
	var last float64
	for ep := 1; ep < 5; ep++ {
		last = mustEpoch(t, g, loader, ep)
	}
	if last >= first {
		t.Fatalf("DP training not converging: %v → %v", first, last)
	}
}

func pipelineFor(kind peft.Kind, stages, micro int) *PipelineEngine {
	m := model.New(model.Tiny())
	tech := peft.New(kind, m, peft.Options{Reduction: 4, LoRARank: 4})
	return NewPipeline(m, tech, stages, nil, micro, lr)
}

func TestPipelineMatchesSingleDevice(t *testing.T) {
	b := makeBatch(8)
	for _, kind := range peft.AllKinds() {
		want, wantLoss := singleDeviceStep(t, kind, b)
		for _, stages := range []int{2, 3} {
			e := pipelineFor(kind, stages, 4)
			loss := mustStep(t, e, b)
			if math.Abs(loss-wantLoss) > 1e-4 {
				t.Fatalf("%s/%d stages: loss %v vs %v", kind, stages, loss, wantLoss)
			}
			paramsClose(t, nn.FlattenParams(e.Tech.Trainable()), want, 2e-4,
				kind.String()+" pipeline")
		}
	}
}

func TestPipelineSingleMicroBatch(t *testing.T) {
	b := makeBatch(4)
	want, _ := singleDeviceStep(t, peft.Full, b)
	e := pipelineFor(peft.Full, 2, 1)
	mustStep(t, e, b)
	paramsClose(t, nn.FlattenParams(e.Tech.Trainable()), want, 2e-4, "M=1 pipeline")
}

func TestPipelineManyMicroBatches(t *testing.T) {
	b := makeBatch(8)
	want, _ := singleDeviceStep(t, peft.Adapters, b)
	e := pipelineFor(peft.Adapters, 3, 8) // one sample per micro-batch
	mustStep(t, e, b)
	paramsClose(t, nn.FlattenParams(e.Tech.Trainable()), want, 2e-4, "M=8 pipeline")
}

func TestPipelineStageParamsPartitionTrainables(t *testing.T) {
	for _, kind := range peft.AllKinds() {
		e := pipelineFor(kind, 3, 2)
		seen := map[interface{}]bool{}
		total := 0
		for s := 0; s < e.Stages(); s++ {
			for _, p := range e.StageParams(s) {
				if seen[p] {
					t.Fatalf("%s: param owned by two stages", kind)
				}
				seen[p] = true
				total++
			}
		}
		if total != len(e.Tech.Trainable()) {
			t.Fatalf("%s: stages own %d params, technique has %d", kind, total, len(e.Tech.Trainable()))
		}
	}
}

func TestPipelineCollectsTaps(t *testing.T) {
	b := makeBatch(4)
	e := pipelineFor(peft.ParallelAdapters, 2, 2)
	var mu sync.Mutex
	perSample := map[int]map[int]bool{} // sample id → set of tap indices
	e.OnTap = func(ids []int, tapIdx int, tap *tensor.Tensor) {
		mu.Lock()
		defer mu.Unlock()
		if tap.Dim(0) != len(ids) {
			t.Errorf("tap batch dim %d vs %d ids", tap.Dim(0), len(ids))
		}
		for _, id := range ids {
			if perSample[id] == nil {
				perSample[id] = map[int]bool{}
			}
			perSample[id][tapIdx] = true
		}
	}
	mustStep(t, e, b)
	wantTaps := model.Tiny().Layers * 2
	if len(perSample) != b.Size() {
		t.Fatalf("taps observed for %d samples, want %d", len(perSample), b.Size())
	}
	for id, taps := range perSample {
		if len(taps) != wantTaps {
			t.Fatalf("sample %d: %d taps, want %d", id, len(taps), wantTaps)
		}
	}
}

func TestHybridMatchesSingleDevice(t *testing.T) {
	b := makeBatch(8)
	for _, kind := range []peft.Kind{peft.Full, peft.ParallelAdapters} {
		want, wantLoss := singleDeviceStep(t, kind, b)
		h := NewHybrid(2, 2, 2, lr, func(lane int) *PipelineEngine {
			m := model.New(model.Tiny())
			tech := peft.New(kind, m, peft.Options{Reduction: 4, LoRARank: 4})
			return NewPipeline(m, tech, 2, nil, 2, lr)
		})
		loss := mustStep(t, h, b)
		if math.Abs(loss-wantLoss) > 1e-4 {
			t.Fatalf("%s: hybrid loss %v vs %v", kind, loss, wantLoss)
		}
		if !h.InSync() {
			t.Fatalf("%s: lanes diverged", kind)
		}
		paramsClose(t, nn.FlattenParams(h.Lanes[0].Tech.Trainable()), want, 2e-4,
			kind.String()+" hybrid")
	}
}

// lmBatch is a teacher-forced language-model batch whose decoder length
// equals its encoder length: the shape on which the taps' sequence
// lengths cannot tell the encoder from the decoder.
func lmBatch(size, seq, vocab int) *data.Batch {
	rng := tensor.NewRNG(17)
	tok := func() int { return 2 + rng.Intn(vocab-2) }
	b := &data.Batch{}
	for i := 0; i < size; i++ {
		enc, dec := make([]int, seq), make([]int, seq)
		for p := range enc {
			enc[p], dec[p] = tok(), tok()
			b.Labels = append(b.Labels, tok())
		}
		dec[0] = 0 // BOS
		b.IDs = append(b.IDs, i)
		b.Enc = append(b.Enc, enc)
		b.Dec = append(b.Dec, dec)
		b.Lens = append(b.Lens, seq)
		b.Targets = append(b.Targets, 0)
	}
	return b
}

// TestLMStepCrossesAtFirstDecoderTap: a pipeline or hybrid Parallel
// Adapters step re-seeds the side state at the first decoder tap even
// when decoder and encoder have the same length, so it trains exactly
// what one device trains.
func TestLMStepCrossesAtFirstDecoderTap(t *testing.T) {
	cfg := model.Tiny()
	cfg.Vocab, cfg.NumClasses, cfg.LM = 24, 24, true
	// Every replica gets the same side network. Its trainables are
	// perturbed alike: the mixing weights start at zero, and a zero mix
	// hides the side state the crossing produces from the forward.
	newPA := func() (*model.Model, peft.Technique) {
		m := model.New(cfg)
		tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
		rng := tensor.NewRNG(5)
		for _, p := range tech.Trainable() {
			for i := range p.Value.Data {
				p.Value.Data[i] += rng.Float32() - 0.5
			}
		}
		return m, tech
	}
	b := lmBatch(8, 6, cfg.Vocab)
	_, ref := newPA()
	tr := &train.Trainer{Tech: ref, Opt: train.NewSGD(ref.Trainable(), lr, 0, 0)}
	wantLoss := tr.TrainBatch(b)
	want := nn.FlattenParams(ref.Trainable())

	check := func(name string, e stepper, tech peft.Technique) {
		t.Helper()
		if loss := mustStep(t, e, b); math.Abs(loss-wantLoss) > 1e-4 {
			t.Fatalf("%s: loss %v vs single %v", name, loss, wantLoss)
		}
		paramsClose(t, nn.FlattenParams(tech.Trainable()), want, 2e-4, name)
	}
	m, tech := newPA()
	check("pipeline LM", NewPipeline(m, tech, 2, nil, 1, lr), tech)
	h := NewHybrid(2, 2, 2, lr, func(lane int) *PipelineEngine {
		m, tech := newPA()
		return NewPipeline(m, tech, 2, nil, 2, lr)
	})
	check("hybrid LM", h, h.Lanes[0].Tech)
}

func TestHybridEpochConverges(t *testing.T) {
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 64, SeqLen: 8, Vocab: 64, Seed: 13})
	h := NewHybrid(2, 2, 2, 0, func(lane int) *PipelineEngine {
		m := model.New(model.Tiny())
		tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
		e := NewPipeline(m, tech, 2, nil, 2, 0)
		// Adam per stage for faster convergence.
		e.Opts = nil
		for s := 0; s < e.Stages(); s++ {
			e.Opts = append(e.Opts, train.NewAdam(e.StageParams(s), 5e-3))
		}
		return e
	})
	loader := data.NewLoader(ds, 8, 1)
	first := mustEpoch(t, h, loader, 0)
	var last float64
	for ep := 1; ep < 6; ep++ {
		last = mustEpoch(t, h, loader, ep)
	}
	if last >= first {
		t.Fatalf("hybrid training not converging: %v → %v", first, last)
	}
}

func TestCacheFedDPGroupMatchesDirectForward(t *testing.T) {
	// Simulates PAC's cache-enabled epochs: replicas fed from a cache via
	// the Forward override must behave exactly like direct forward.
	b := makeBatch(6)
	store := acache.NewMemoryStore()

	build := func() *DPGroup {
		return NewDPGroup(2, func(rank int) (peft.Technique, train.Optimizer) {
			m := model.New(model.Tiny())
			tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
			return tech, train.NewSGD(tech.Trainable(), lr, 0, 0)
		})
	}

	// Reference: direct forward.
	ref := build()
	refLoss := mustStep(t, ref, b)

	// Cache-fed: populate the store via one forward sweep, then train
	// through ForwardFromTaps.
	g := build()
	for i := 0; i < b.Size(); i++ {
		one := b.Slice(i, i+1)
		res := g.Techs[0].Forward(one.Enc, one.Dec, one.Lens, false)
		if err := store.Put(one.IDs[0], acache.Entry(res.Taps)); err != nil {
			t.Fatal(err)
		}
	}
	g.Forward = func(rank int, mb *data.Batch, trainMode bool) *peft.Result {
		pa := g.Techs[rank].(*peft.Parallel)
		// Assemble batch taps from per-sample cache entries.
		taps := make([]*tensor.Tensor, pa.NumTaps())
		for _, id := range mb.IDs {
			entry, ok := store.Get(id)
			if !ok {
				t.Errorf("cache miss for %d", id)
				return pa.Forward(mb.Enc, mb.Dec, mb.Lens, trainMode)
			}
			for ti := range taps {
				if taps[ti] == nil {
					taps[ti] = entry[ti].Clone()
				} else {
					taps[ti] = tensor.Concat(taps[ti], entry[ti])
				}
			}
		}
		return &peft.Result{Logits: pa.ForwardFromTaps(taps), Taps: taps}
	}
	cachedLoss := mustStep(t, g, b)
	if math.Abs(refLoss-cachedLoss) > 1e-5 {
		t.Fatalf("cache-fed loss %v vs direct %v", cachedLoss, refLoss)
	}
	paramsClose(t, nn.FlattenParams(g.Techs[0].Trainable()),
		nn.FlattenParams(ref.Techs[0].Trainable()), 1e-4, "cache-fed DP")
	if st := store.Stats(); st.Hits == 0 {
		t.Fatal("cache never hit")
	}
}
