package core

import (
	"context"
	"testing"

	"pac/internal/acache"
	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/train"
)

func smallDataset(size int) *data.Dataset {
	return data.Generate(data.GenConfig{Task: data.MRPC, Size: size, SeqLen: 8, Vocab: 64, Seed: 21})
}

func TestFrameworkFullWorkflow(t *testing.T) {
	ds := smallDataset(16)
	f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
		Stages: 2, Lanes: 2, LR: 0.02})
	loss, err := f.FineTune(ds, 8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if loss <= 0 {
		t.Fatalf("final loss %v", loss)
	}
	if f.EpochsRun() != 3 {
		t.Fatalf("epochs run %d", f.EpochsRun())
	}
	// Cache must cover the dataset exactly once per sample.
	if f.Cache().Len() != ds.Len() {
		t.Fatalf("cache holds %d of %d samples", f.Cache().Len(), ds.Len())
	}
	// Cached epochs must actually hit the cache.
	if st := f.Cache().Stats(); st.Hits == 0 {
		t.Fatal("cached epochs never read the cache")
	}
	if f.RedistributedBytes <= 0 {
		t.Fatal("redistribution bytes unaccounted")
	}
}

func TestFrameworkCachedEpochsEquivalentToDirect(t *testing.T) {
	// The whole point of the cache: cached training must produce the same
	// adapters as running the backbone every epoch. Compare a 2-epoch PAC
	// run against 2 epochs of hybrid training without cache reuse.
	ds := smallDataset(8)
	batch := 4

	f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
		Stages: 2, Lanes: 1, LR: 0.05})
	if _, err := f.FineTune(ds, batch, 2, 3); err != nil {
		t.Fatal(err)
	}

	// Reference: same schedule but every epoch through the backbone.
	ref := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
		Stages: 2, Lanes: 1, LR: 0.05})
	loader := data.NewLoader(ds, batch, 3)
	mustPhase1(t, ref, loader, 0)
	mustPhase1(t, ref, loader, 1)

	a := nn.FlattenParams(f.Reference().Trainable())
	b := nn.FlattenParams(ref.hybrid.Lanes[0].Tech.Trainable())
	for i := range a {
		d := float64(a[i] - b[i])
		if d > 1e-4 || d < -1e-4 {
			t.Fatalf("param %d diverged: cached %v direct %v", i, a[i], b[i])
		}
	}
}

func TestFrameworkSingleEpochSkipsCachePhase(t *testing.T) {
	ds := smallDataset(8)
	f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
		Stages: 2, Lanes: 1})
	if _, err := f.FineTune(ds, 4, 1, 1); err != nil {
		t.Fatal(err)
	}
	if f.RedistributedBytes != 0 {
		t.Fatal("single-epoch run should not redistribute")
	}
	res := f.Evaluate(ds, 4)
	if res.N != ds.Len() {
		t.Fatalf("evaluated %d of %d", res.N, ds.Len())
	}
}

func TestFrameworkLearns(t *testing.T) {
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 96, SeqLen: 12, Vocab: 64, Seed: 22})
	trainDS, evalDS := ds.Split(0.25)
	f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 2},
		Stages: 2, Lanes: 2, LR: 0.05})
	before := f.Evaluate(evalDS, 8)
	var err error
	for pass := 0; pass < 2 && err == nil; pass++ {
		_, err = f.FineTune(trainDS, 8, 4, int64(pass))
	}
	if err != nil {
		t.Fatal(err)
	}
	after := f.Evaluate(evalDS, 8)
	if after.Loss >= before.Loss {
		t.Fatalf("PAC fine-tuning did not reduce eval loss: %.4f → %.4f", before.Loss, after.Loss)
	}
}

// mustPhase1 runs a hybrid epoch over fabrics the test expects to be
// reliable.
func mustPhase1(t testing.TB, f *Framework, loader *data.Loader, epoch int) {
	t.Helper()
	if _, err := f.Phase1EpochCtx(context.Background(), loader, epoch); err != nil {
		t.Fatalf("phase-1 epoch %d: %v", epoch, err)
	}
}

func TestRedistributeRequiresPhase1(t *testing.T) {
	f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4}, Stages: 1, Lanes: 1})
	if err := f.Redistribute(smallDataset(4)); err == nil {
		t.Fatal("redistribute before phase 1 should fail")
	}
	if _, err := f.CachedEpochsCtx(context.Background(), nil, 0, 1); err == nil {
		t.Fatal("cached epochs before redistribution should fail")
	}
}

func TestRedistributeReportsIncompleteCoverage(t *testing.T) {
	ds := smallDataset(8)
	f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4}, Stages: 2, Lanes: 1})
	loader := data.NewLoader(ds, 4, 1)
	mustPhase1(t, f, loader, 0)
	// A dataset with extra samples: the shortfall is reported (those
	// samples will be recomputed on demand), not fatal.
	bigger := smallDataset(12)
	if err := f.Redistribute(bigger); err != nil {
		t.Fatal(err)
	}
	if f.CoverageMissing != 4 {
		t.Fatalf("CoverageMissing = %d want 4", f.CoverageMissing)
	}
}

func TestBoundedCacheRecomputeMatchesUnbounded(t *testing.T) {
	// A cache too small for the dataset turns samples away; the recompute
	// path must yield bit-identical training (taps are deterministic).
	ds := smallDataset(8)
	run := func(store acache.Store) []float32 {
		f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
			Stages: 2, Lanes: 1, LR: 0.05, Cache: store})
		if _, err := f.FineTune(ds, 4, 3, 3); err != nil {
			t.Fatal(err)
		}
		return nn.FlattenParams(f.Reference().Trainable())
	}
	full := run(acache.NewMemoryStore())

	// Bound: three entries' worth of bytes, then none at all (where a
	// pressure Shed to zero leaves the cache: every sample recomputed).
	for _, entries := range []int64{3, 0} {
		bounded := acache.NewBounded(acache.NewMemoryStore(), entries*entryBytes(t, ds))
		f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
			Stages: 2, Lanes: 1, LR: 0.05, Cache: bounded})
		if _, err := f.FineTune(ds, 4, 3, 3); err != nil {
			t.Fatal(err)
		}
		if bounded.Evicted() == 0 {
			t.Fatal("bound never turned an entry away — test ineffective")
		}
		if want := int64(2 * (ds.Len() - int(entries))); f.Recomputed() != want {
			t.Fatalf("room for %d: recomputed %d, want %d", entries, f.Recomputed(), want)
		}
		got := nn.FlattenParams(f.Reference().Trainable())
		for i := range full {
			if full[i] != got[i] {
				t.Fatalf("room for %d: param %d: bounded %v unbounded %v", entries, i, got[i], full[i])
			}
		}
	}
}

func TestF16CacheTrainsClose(t *testing.T) {
	// Half-precision cached taps perturb training only slightly.
	ds := smallDataset(8)
	run := func(store acache.Store) []float32 {
		f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
			Stages: 2, Lanes: 1, LR: 0.05, Cache: store})
		if _, err := f.FineTune(ds, 4, 3, 3); err != nil {
			t.Fatal(err)
		}
		return nn.FlattenParams(f.Reference().Trainable())
	}
	full := run(acache.NewMemoryStore())
	half := run(acache.NewF16Store())
	var maxDiff float64
	for i := range full {
		d := float64(full[i] - half[i])
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 0.05 {
		t.Fatalf("fp16 cache diverged: max param delta %v", maxDiff)
	}
	if maxDiff == 0 {
		t.Fatal("fp16 produced bitwise-identical params — compression suspiciously inert")
	}
}

func TestFrameworkWithDiskCache(t *testing.T) {
	store, err := acache.NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ds := smallDataset(8)
	f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
		Stages: 2, Lanes: 1, Cache: store})
	if _, err := f.FineTune(ds, 4, 2, 1); err != nil {
		t.Fatal(err)
	}
	if store.Len() != ds.Len() {
		t.Fatalf("disk cache holds %d entries", store.Len())
	}
}

func TestFrameworkMatchesSingleDeviceTrainer(t *testing.T) {
	// One stage, one lane, one micro-batch: PAC degenerates to the
	// single-device reference trainer.
	ds := smallDataset(8)
	b := data.BatchOf(ds.Examples)

	f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
		Stages: 1, Lanes: 1, Micro: 1, LR: 0.05})
	if _, err := f.hybrid.StepCtx(context.Background(), b); err != nil {
		t.Fatal(err)
	}

	m := model.New(model.Tiny())
	tech := peft.NewParallel(m, peft.Options{Reduction: 4})
	tr := &train.Trainer{Tech: tech, Opt: train.NewSGD(tech.Trainable(), 0.05, 0, 0)}
	tr.TrainBatch(b)

	a := nn.FlattenParams(f.hybrid.Lanes[0].Tech.Trainable())
	w := nn.FlattenParams(tech.Trainable())
	for i := range a {
		d := float64(a[i] - w[i])
		if d > 1e-4 || d < -1e-4 {
			t.Fatalf("param %d: framework %v trainer %v", i, a[i], w[i])
		}
	}
}
