package peft

import (
	"math"
	"testing"

	"pac/internal/autograd"
	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/tensor"
)

func batch() ([][]int, [][]int, []int, []int) {
	enc := [][]int{{5, 6, 7, 8}, {9, 10, 11, 12}}
	dec := [][]int{{0}, {0}}
	lens := []int{4, 4}
	labels := []int{0, 1}
	return enc, dec, lens, labels
}

func TestKindStrings(t *testing.T) {
	want := []string{"Full", "Adapters", "LoRA", "ParallelAdapters"}
	for i, k := range AllKinds() {
		if k.String() != want[i] {
			t.Fatalf("kind %d = %q want %q", i, k.String(), want[i])
		}
	}
}

func TestAllTechniquesForwardAndTrain(t *testing.T) {
	enc, dec, lens, labels := batch()
	for _, kind := range AllKinds() {
		m := model.New(model.Tiny())
		tech := New(kind, m, Options{Reduction: 4, LoRARank: 4})
		res := tech.Forward(enc, dec, lens, true)
		if res.Logits == nil || !res.Logits.Value.IsFinite() {
			t.Fatalf("%s: bad logits", kind)
		}
		loss := autograd.SoftmaxCrossEntropy(res.Logits, labels)
		autograd.Backward(loss)
		params := tech.Trainable()
		if len(params) == 0 {
			t.Fatalf("%s: no trainable params", kind)
		}
		for _, p := range params {
			if p.Grad == nil {
				t.Fatalf("%s: trainable param missing grad", kind)
			}
		}
	}
}

func TestPEFTFreezesBackbone(t *testing.T) {
	enc, dec, lens, labels := batch()
	for _, kind := range []Kind{Adapters, LoRA, ParallelAdapters} {
		m := model.New(model.Tiny())
		backboneParams := m.Params() // capture before attach (adapters add params)
		tech := New(kind, m, Options{Reduction: 4, LoRARank: 4})
		res := tech.Forward(enc, dec, lens, true)
		autograd.Backward(autograd.SoftmaxCrossEntropy(res.Logits, labels))
		for _, p := range backboneParams {
			if p.RequiresGrad() {
				t.Fatalf("%s: backbone param still trainable", kind)
			}
			if p.Grad != nil {
				t.Fatalf("%s: backbone param accumulated grad", kind)
			}
		}
	}
}

func TestTrainableCountsOrdering(t *testing.T) {
	// PEFT techniques must train a small fraction of what Full trains.
	counts := map[Kind]int{}
	for _, kind := range AllKinds() {
		m := model.New(model.Small())
		// Rank/reduction scaled to the tiny test model; the defaults
		// target paper-scale hidden widths.
		tech := New(kind, m, Options{Reduction: 8, LoRARank: 2})
		n := 0
		for _, p := range tech.Trainable() {
			n += p.Value.Numel()
		}
		counts[kind] = n
	}
	for _, kind := range []Kind{Adapters, LoRA, ParallelAdapters} {
		if counts[kind]*2 > counts[Full] {
			t.Fatalf("%s trains %d of %d params — not parameter-efficient", kind, counts[kind], counts[Full])
		}
	}
}

func TestAnalyticTrainableCounts(t *testing.T) {
	// Paper Table 1: T5-Large 737M full, 12M Adapters (1.70%), 9M LoRA
	// (1.26%).
	cfg := model.T5Large()
	full := TrainableParamCount(Full, cfg, Options{})
	if math.Abs(float64(full)/1e6-737) > 20 {
		t.Fatalf("full count %dM", full/1e6)
	}
	ad := TrainableParamCount(Adapters, cfg, Options{})
	if math.Abs(float64(ad)/1e6-12) > 2 {
		t.Fatalf("adapters count %.1fM, want ≈12M", float64(ad)/1e6)
	}
	lora := TrainableParamCount(LoRA, cfg, Options{})
	if math.Abs(float64(lora)/1e6-9) > 2 {
		t.Fatalf("lora count %.1fM, want ≈9M", float64(lora)/1e6)
	}
	pa := TrainableParamCount(ParallelAdapters, cfg, Options{})
	if pa <= 0 || pa > full/10 {
		t.Fatalf("parallel adapters count %.1fM out of range", float64(pa)/1e6)
	}
}

func TestParallelAdaptersNoBackboneTape(t *testing.T) {
	// The central algorithmic claim: with Parallel Adapters the gradient
	// graph contains only side-network nodes.
	m := model.New(model.Tiny())
	tech := New(ParallelAdapters, m, Options{Reduction: 4})
	enc, dec, lens, labels := batch()
	res := tech.Forward(enc, dec, lens, true)
	loss := autograd.SoftmaxCrossEntropy(res.Logits, labels)
	size := autograd.GraphSize(loss)

	// Compare with LoRA, whose tape must span the whole backbone.
	m2 := model.New(model.Tiny())
	tech2 := New(LoRA, m2, Options{LoRARank: 4})
	res2 := tech2.Forward(enc, dec, lens, true)
	size2 := autograd.GraphSize(autograd.SoftmaxCrossEntropy(res2.Logits, labels))

	if size*2 > size2 {
		t.Fatalf("parallel adapters tape (%d nodes) not substantially smaller than LoRA's (%d)", size, size2)
	}
}

func TestParallelForwardFromTapsMatchesForward(t *testing.T) {
	m := model.New(model.Tiny())
	tech := NewParallel(m, Options{Reduction: 4})
	enc, dec, lens, _ := batch()
	res := tech.Forward(enc, dec, lens, false)
	if len(res.Taps) != m.NumTaps() {
		t.Fatalf("taps %d want %d", len(res.Taps), m.NumTaps())
	}
	replay := tech.ForwardFromTaps(res.Taps)
	for i := range replay.Value.Data {
		if replay.Value.Data[i] != res.Logits.Value.Data[i] {
			t.Fatal("cache-path logits diverge from full forward")
		}
	}
}

func TestParallelTapsInvariantAcrossEpochs(t *testing.T) {
	// The activation-cache premise: frozen backbone ⇒ identical taps for
	// identical inputs, even while the side network trains.
	m := model.New(model.Tiny())
	tech := NewParallel(m, Options{Reduction: 4})
	enc, dec, lens, labels := batch()
	first := tech.Forward(enc, dec, lens, true)
	// Update side-network params (a crude SGD step).
	autograd.Backward(autograd.SoftmaxCrossEntropy(first.Logits, labels))
	for _, p := range tech.Trainable() {
		if p.Grad != nil {
			for i := range p.Value.Data {
				p.Value.Data[i] -= 0.1 * p.Grad.Data[i]
			}
		}
	}
	second := tech.Forward(enc, dec, lens, true)
	for i := range first.Taps {
		for j := range first.Taps[i].Data {
			if first.Taps[i].Data[j] != second.Taps[i].Data[j] {
				t.Fatal("backbone taps changed between epochs despite frozen backbone")
			}
		}
	}
}

func TestLoRAInitialForwardUnchanged(t *testing.T) {
	// LoRA B=0 ⇒ attaching must not change the model's function.
	enc, dec, lens, _ := batch()
	m1 := model.New(model.Tiny())
	base := m1.Forward(enc, dec, lens, false)
	m2 := model.New(model.Tiny())
	tech := New(LoRA, m2, Options{LoRARank: 4})
	res := tech.Forward(enc, dec, lens, false)
	for i := range base.Logits.Value.Data {
		if math.Abs(float64(base.Logits.Value.Data[i]-res.Logits.Value.Data[i])) > 1e-6 {
			t.Fatal("freshly attached LoRA changed model output")
		}
	}
}

func TestAdaptersInitialForwardUnchanged(t *testing.T) {
	// Bottleneck Up=0 ⇒ attaching must not change the model's function.
	enc, dec, lens, _ := batch()
	m1 := model.New(model.Tiny())
	base := m1.Forward(enc, dec, lens, false)
	m2 := model.New(model.Tiny())
	tech := New(Adapters, m2, Options{Reduction: 4})
	res := tech.Forward(enc, dec, lens, false)
	for i := range base.Logits.Value.Data {
		if math.Abs(float64(base.Logits.Value.Data[i]-res.Logits.Value.Data[i])) > 1e-6 {
			t.Fatal("freshly attached adapters changed model output")
		}
	}
}

func TestBackboneBackwardFlags(t *testing.T) {
	m := model.New(model.Tiny())
	if New(ParallelAdapters, m, Options{Reduction: 4}).BackboneBackward() {
		t.Fatal("parallel adapters must not need backbone backward")
	}
	for _, kind := range []Kind{Full, Adapters, LoRA} {
		m := model.New(model.Tiny())
		if !New(kind, m, Options{Reduction: 4, LoRARank: 4}).BackboneBackward() {
			t.Fatalf("%s should need backbone backward", kind)
		}
	}
}

func TestParallelHiddenWidth(t *testing.T) {
	m := model.New(model.Small()) // hidden 32
	p := NewParallel(m, Options{Reduction: 8})
	if p.r != 4 {
		t.Fatalf("side hidden = %d want 4", p.r)
	}
	if len(nn.TrainableParams(m)) != 0 {
		t.Fatal("backbone not frozen")
	}
}

// TestBackboneTapsSettlesTape pins the tape ledger across forwards: the
// backbone's in-place ops (softmax, additive mask) put two nodes on one
// tensor header, and the teardown must settle both nodes' reservations
// before the first of them recycles the header.
func TestBackboneTapsSettlesTape(t *testing.T) {
	enc, dec, lens, _ := batch()
	pa := NewParallel(model.New(model.Tiny()), Options{Reduction: 4})
	tape := memledger.Default().Account("autograd.tape")
	start := tape.Bytes()
	for i := 0; i < 5; i++ {
		for _, tap := range pa.BackboneTaps(enc, dec, lens) {
			tensor.PutTensor(tap)
		}
		if got := tape.Bytes(); got != start {
			t.Fatalf("forward %d: autograd.tape at %d bytes, started at %d", i+1, got, start)
		}
	}
}
