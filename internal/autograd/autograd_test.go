package autograd

import (
	"testing"

	"pac/internal/tensor"
)

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Backward(NewParam(tensor.New(2, 2)))
}

func TestGradAccumulationAcrossBackwards(t *testing.T) {
	a := NewParam(tensor.FromSlice([]float32{1, 2}, 2))
	for i := 0; i < 3; i++ {
		Backward(Mean(Mul(a, a)))
	}
	// d/da mean(a²) = a; accumulated 3×.
	want := []float32{3, 6}
	for i, w := range want {
		if a.Grad.Data[i] != w {
			t.Fatalf("grad[%d] = %v want %v", i, a.Grad.Data[i], w)
		}
	}
	a.ZeroGrad()
	for _, v := range a.Grad.Data {
		if v != 0 {
			t.Fatal("ZeroGrad did not clear")
		}
	}
}

func TestDiamondGraphGradient(t *testing.T) {
	// y = a*a + a*a: gradient must accumulate through both paths (4a).
	a := NewParam(tensor.FromSlice([]float32{3}, 1))
	sq := Mul(a, a)
	y := Add(sq, sq)
	Backward(Mean(y))
	if got := a.Grad.Data[0]; got != 12 {
		t.Fatalf("diamond grad = %v, want 12", got)
	}
}

func TestFrozenLeafGetsNoGradient(t *testing.T) {
	a := NewParam(tensor.FromSlice([]float32{1, 2}, 2))
	frozen := NewVar(tensor.FromSlice([]float32{5, 5}, 2))
	Backward(Mean(Mul(a, frozen)))
	if frozen.Grad != nil {
		t.Fatal("frozen variable accumulated a gradient")
	}
	if a.Grad == nil {
		t.Fatal("trainable variable missing gradient")
	}
}

func TestFrozenSubgraphRecordsNoTape(t *testing.T) {
	// A chain of ops over frozen inputs must not grow the gradient graph:
	// this is the property Parallel Adapters rely on (no backbone tape).
	g := tensor.NewRNG(1)
	x := NewVar(g.Randn(1, 4, 4))
	w := NewVar(g.Randn(1, 4, 4)) // frozen weight
	h := x
	for i := 0; i < 10; i++ {
		h = GELU(MatMul(h, w))
	}
	if h.RequiresGrad() {
		t.Fatal("frozen chain should not require grad")
	}
	// Attach a trainable head; only the head should be on the tape.
	head := NewParam(g.Randn(1, 4, 2))
	loss := Mean(MatMul(h, head))
	size := GraphSize(loss)
	// loss → matmul → {h (frozen, stops), head}: expect ≤ 4 nodes.
	if size > 4 {
		t.Fatalf("tape size %d, frozen backbone leaked into graph", size)
	}
	Backward(loss)
	if head.Grad == nil {
		t.Fatal("head missing grad")
	}
}

func TestSetRequiresGradOnNonLeafPanics(t *testing.T) {
	a := NewParam(tensor.FromSlice([]float32{1}, 1))
	b := Mul(a, a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b.SetRequiresGrad(false)
}

func TestDropoutTrainEvalModes(t *testing.T) {
	g := tensor.NewRNG(2)
	a := NewParam(tensor.Ones(100, 10))
	out := Dropout(a, 0.5, false, g)
	if out != a {
		t.Fatal("eval-mode dropout must be identity")
	}
	out = Dropout(a, 0.5, true, g)
	zeros, scaled := 0, 0
	for _, v := range out.Value.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			scaled++
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	if zeros < 300 || zeros > 700 {
		t.Fatalf("dropout rate off: %d/1000 zeros", zeros)
	}
	Backward(Mean(out))
	// Gradient flows only through surviving elements.
	nonzeroGrads := 0
	for _, v := range a.Grad.Data {
		if v != 0 {
			nonzeroGrads++
		}
	}
	if nonzeroGrads != scaled {
		t.Fatalf("grad nonzeros %d != surviving elements %d", nonzeroGrads, scaled)
	}
}

func TestSoftmaxCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over C classes → loss = ln C.
	logits := NewVar(tensor.New(2, 4))
	loss := SoftmaxCrossEntropy(logits, []int{0, 3})
	want := float32(1.3862944) // ln 4
	if d := loss.Value.Data[0] - want; d > 1e-5 || d < -1e-5 {
		t.Fatalf("uniform CE = %v want %v", loss.Value.Data[0], want)
	}
}

func TestBackwardWithSeedShapeMismatchPanics(t *testing.T) {
	a := NewParam(tensor.New(2, 2))
	b := Mul(a, a)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BackwardWithSeed(b, tensor.New(3))
}

func TestEmbeddingOutOfRangePanics(t *testing.T) {
	table := NewParam(tensor.New(4, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Embedding(table, []int{4})
}
