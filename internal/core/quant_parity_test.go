package core

import (
	"math"
	"testing"

	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/tensor"
	"pac/internal/train"
)

// End-to-end int8 parity: the same PAC fine-tune (cache fill through the
// frozen backbone, redistribution, cached adapter epochs, evaluation)
// run once in fp32 and once with the backbone quantized under the int8
// backend. Frozen weights make calibration deterministic, so the whole
// comparison is seed-stable: the quantized run must learn, and its
// evaluation metrics and converged adapters must track the fp32 run
// within quantization tolerance.
func TestQuantizedBackboneEndToEndParity(t *testing.T) {
	prev := tensor.ActiveBackend().Name()
	defer func() {
		if err := tensor.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()

	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 96, SeqLen: 12, Vocab: 64, Seed: 22})
	trainDS, evalDS := ds.Split(0.25)

	type runResult struct {
		before, after train.EvalResult
		params        []float32
	}
	run := func(backend string) runResult {
		if err := tensor.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
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
		return runResult{before, after, nn.FlattenParams(f.Reference().Trainable())}
	}

	fp32 := run("generic")
	int8 := run("int8")

	// Both runs must actually learn.
	if fp32.after.Loss >= fp32.before.Loss {
		t.Fatalf("fp32 run did not learn: %.4f → %.4f", fp32.before.Loss, fp32.after.Loss)
	}
	if int8.after.Loss >= int8.before.Loss {
		t.Fatalf("int8 run did not learn: %.4f → %.4f", int8.before.Loss, int8.after.Loss)
	}

	// Classification-accuracy parity: quantizing the frozen backbone may
	// not change what the fine-tuned model predicts beyond a small band.
	if d := math.Abs(fp32.after.Accuracy - int8.after.Accuracy); d > 0.15 {
		t.Fatalf("accuracy diverged: fp32 %.3f vs int8 %.3f", fp32.after.Accuracy, int8.after.Accuracy)
	}
	if d := math.Abs(fp32.after.Loss - int8.after.Loss); d > 0.1 {
		t.Fatalf("eval loss diverged: fp32 %.4f vs int8 %.4f", fp32.after.Loss, int8.after.Loss)
	}

	// Adapter-convergence parity: the trained adapters track the fp32
	// ones. Quantization noise feeds every step, so this is a coarse
	// band, not the bitwise check the cached-vs-direct test does.
	if len(fp32.params) != len(int8.params) || len(fp32.params) == 0 {
		t.Fatalf("param vectors: %d vs %d", len(fp32.params), len(int8.params))
	}
	var num, den float64
	for i := range fp32.params {
		d := float64(fp32.params[i] - int8.params[i])
		num += d * d
		den += float64(fp32.params[i]) * float64(fp32.params[i])
	}
	if den == 0 {
		t.Fatal("fp32 adapters are all zero")
	}
	if rel := math.Sqrt(num / den); rel > 0.5 {
		t.Fatalf("adapters diverged: relative L2 distance %.3f", rel)
	}
}

// TestQuantizedBackboneForwardParityUntrained pins the pure-inference
// side: cache-fill + classification logits of one replica, fp32 vs
// quantized, before any training touches the adapters.
func TestQuantizedBackboneForwardParityUntrained(t *testing.T) {
	prev := tensor.ActiveBackend().Name()
	defer func() {
		if err := tensor.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()

	ds := smallDataset(16)
	eval := func(backend string) train.EvalResult {
		if err := tensor.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
			Stages: 1, Lanes: 1})
		return f.Evaluate(ds, 8)
	}
	fp32 := eval("generic")
	int8 := eval("int8")
	if fp32.N != int8.N || fp32.N != ds.Len() {
		t.Fatalf("eval coverage: fp32 %d int8 %d of %d", fp32.N, int8.N, ds.Len())
	}
	if d := math.Abs(fp32.Loss - int8.Loss); d > 0.05 {
		t.Fatalf("untrained eval loss diverged: fp32 %.4f vs int8 %.4f", fp32.Loss, int8.Loss)
	}
	if d := math.Abs(fp32.Accuracy - int8.Accuracy); d > 0.15 {
		t.Fatalf("untrained accuracy diverged: fp32 %.3f vs int8 %.3f", fp32.Accuracy, int8.Accuracy)
	}
}
