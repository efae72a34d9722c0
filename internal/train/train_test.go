package train

import (
	"math"
	"testing"

	"pac/internal/autograd"
	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/tensor"
)

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimize ||x - target||² with SGD.
	x := autograd.NewParam(tensor.Full(5, 4))
	target := tensor.Full(2, 4)
	opt := NewSGD([]*autograd.Variable{x}, 0.1, 0, 0)
	for i := 0; i < 200; i++ {
		autograd.Backward(autograd.MSE(x, target))
		opt.Step()
	}
	for _, v := range x.Value.Data {
		if math.Abs(float64(v)-2) > 1e-3 {
			t.Fatalf("SGD did not converge: %v", v)
		}
	}
	if stateElems(opt) != 0 {
		t.Fatal("momentum-free SGD should have no state")
	}
}

// stateElems counts the float32s an optimizer carries between steps.
func stateElems(opt Stateful) int {
	ts, _ := opt.StateTensors()
	n := 0
	for _, t := range ts {
		n += t.Numel()
	}
	return n
}

func TestSGDMomentumAndDecay(t *testing.T) {
	x := autograd.NewParam(tensor.Full(5, 4))
	target := tensor.New(4)
	opt := NewSGD([]*autograd.Variable{x}, 0.05, 0.9, 0.01)
	for i := 0; i < 300; i++ {
		autograd.Backward(autograd.MSE(x, target))
		opt.Step()
	}
	for _, v := range x.Value.Data {
		if math.Abs(float64(v)) > 1e-2 {
			t.Fatalf("momentum SGD did not converge: %v", v)
		}
	}
	if stateElems(opt) != 4 {
		t.Fatalf("SGD state = %d elements, want 4 (one velocity per weight)", stateElems(opt))
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	x := autograd.NewParam(tensor.Full(-3, 6))
	target := tensor.Full(1, 6)
	opt := NewAdam([]*autograd.Variable{x}, 0.05)
	for i := 0; i < 500; i++ {
		autograd.Backward(autograd.MSE(x, target))
		opt.Step()
	}
	for _, v := range x.Value.Data {
		if math.Abs(float64(v)-1) > 1e-2 {
			t.Fatalf("Adam did not converge: %v", v)
		}
	}
	if stateElems(opt) != 6*2 {
		t.Fatalf("Adam state = %d elements, want 12 (m and v per weight)", stateElems(opt))
	}
}

func TestStepSkipsParamsWithoutGrads(t *testing.T) {
	x := autograd.NewParam(tensor.Full(1, 2))
	opt := NewAdam([]*autograd.Variable{x}, 0.1)
	opt.Step() // no grad accumulated — must not move or panic
	for _, v := range x.Value.Data {
		if v != 1 {
			t.Fatal("param moved without gradient")
		}
	}
}

func TestClipGradNorm(t *testing.T) {
	x := autograd.NewParam(tensor.New(2))
	x.Grad = tensor.FromSlice([]float32{3, 4}, 2) // norm 5
	pre := ClipGradNorm([]*autograd.Variable{x}, 1)
	if math.Abs(float64(pre)-5) > 1e-5 {
		t.Fatalf("pre-norm %v", pre)
	}
	if math.Abs(float64(x.Grad.Data[0])-0.6) > 1e-5 || math.Abs(float64(x.Grad.Data[1])-0.8) > 1e-5 {
		t.Fatalf("clipped grads %v", x.Grad.Data)
	}
	// Below threshold: untouched.
	y := autograd.NewParam(tensor.New(1))
	y.Grad = tensor.FromSlice([]float32{0.5}, 1)
	ClipGradNorm([]*autograd.Variable{y}, 1)
	if y.Grad.Data[0] != 0.5 {
		t.Fatal("clip touched small grads")
	}
}

func TestMetricsKnownValues(t *testing.T) {
	if got := Accuracy([]int{1, 0, 1}, []int{1, 1, 1}); math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("Accuracy %v", got)
	}
	// F1: pred=[1,1,0,0], labels=[1,0,1,0]: tp=1 fp=1 fn=1 → P=R=0.5 → F1=0.5.
	if got := F1([]int{1, 1, 0, 0}, []int{1, 0, 1, 0}); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("F1 %v", got)
	}
	if F1([]int{0, 0}, []int{1, 0}) != 0 {
		t.Fatal("degenerate F1 should be 0")
	}
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Pearson %v", got)
	}
	yNeg := []float64{5, 4, 3, 2, 1}
	if got := Spearman(x, yNeg); math.Abs(got+1) > 1e-9 {
		t.Fatalf("Spearman %v", got)
	}
	// Monotone nonlinear relation: Spearman 1, Pearson < 1.
	yExp := []float64{1, 8, 27, 300, 10000}
	if got := Spearman(x, yExp); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Spearman nonlinear %v", got)
	}
	if got := Pearson(x, yExp); got >= 1 {
		t.Fatalf("Pearson nonlinear %v", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	x := []float64{1, 2, 2, 3}
	got := ranks(x)
	want := []float64{0, 1.5, 1.5, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks %v want %v", got, want)
		}
	}
}

func TestTrainerLearnsClassificationTask(t *testing.T) {
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 384, SeqLen: 16, Vocab: 64, Seed: 3})
	trainDS, evalDS := ds.Split(0.25)
	m := model.New(model.Tiny())
	tech := peft.New(peft.Full, m, peft.Options{})
	tr := &Trainer{Tech: tech, Opt: NewAdam(tech.Trainable(), 3e-3), ClipNorm: 1}
	loader := data.NewLoader(trainDS, 16, 1)
	before := Evaluate(tech, evalDS, 16)
	for ep := 0; ep < 8; ep++ {
		tr.TrainEpoch(loader, ep)
	}
	after := Evaluate(tech, evalDS, 16)
	if after.Accuracy < 0.85 {
		t.Fatalf("accuracy %.3f after training (before %.3f) — task not learned", after.Accuracy, before.Accuracy)
	}
	if after.Loss >= before.Loss {
		t.Fatalf("loss did not drop: %.4f → %.4f", before.Loss, after.Loss)
	}
}

func TestTrainerLearnsRegressionTask(t *testing.T) {
	ds := data.Generate(data.GenConfig{Task: data.STSB, Size: 256, SeqLen: 12, Vocab: 64, Seed: 4})
	trainDS, evalDS := ds.Split(0.25)
	cfg := model.Tiny()
	cfg.NumClasses = 1
	m := model.New(cfg)
	tech := peft.New(peft.Full, m, peft.Options{})
	tr := &Trainer{Tech: tech, Opt: NewAdam(tech.Trainable(), 3e-3), Regression: true, ClipNorm: 1}
	loader := data.NewLoader(trainDS, 16, 1)
	for ep := 0; ep < 8; ep++ {
		tr.TrainEpoch(loader, ep)
	}
	res := Evaluate(tech, evalDS, 16)
	if res.Pearson < 0.5 {
		t.Fatalf("pearson %.3f — regression not learned", res.Pearson)
	}
}

func TestEvalResultMetricSelection(t *testing.T) {
	r := EvalResult{Accuracy: 0.9, F1: 0.8, Pearson: 0.7, Spearman: 0.6}
	if got := r.Metric(data.MRPC); math.Abs(got-85) > 1e-9 {
		t.Fatalf("MRPC metric %v", got)
	}
	if got := r.Metric(data.STSB); math.Abs(got-65) > 1e-9 {
		t.Fatalf("STS-B metric %v", got)
	}
	if got := r.Metric(data.SST2); math.Abs(got-90) > 1e-9 {
		t.Fatalf("SST-2 metric %v", got)
	}
}

func TestOnStepCallback(t *testing.T) {
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 32, SeqLen: 8, Vocab: 64, Seed: 5})
	m := model.New(model.Tiny())
	tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
	calls := 0
	tr := &Trainer{Tech: tech, Opt: NewSGD(tech.Trainable(), 0.01, 0, 0),
		OnStep: func(epoch, step int, loss float64) { calls++ }}
	tr.TrainEpoch(data.NewLoader(ds, 8, 1), 0)
	if calls != 4 {
		t.Fatalf("OnStep called %d times, want 4", calls)
	}
}
