package nn

import (
	"math"
	"testing"

	"pac/internal/autograd"
	"pac/internal/tensor"
)

func TestLinearShapes(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewLinear(6, 4, rng)
	x := autograd.NewVar(rng.Randn(1, 2, 3, 6))
	y := l.Forward(x)
	want := []int{2, 3, 4}
	got := y.Value.Shape()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shape %v want %v", got, want)
		}
	}
}

func TestLinearGradientFlow(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLinear(3, 2, rng)
	x := autograd.NewVar(rng.Randn(1, 4, 3))
	loss := autograd.Mean(l.Forward(x))
	autograd.Backward(loss)
	if l.W.Grad == nil || l.B.Grad == nil {
		t.Fatal("linear params missing grads")
	}
	// Bias grad of a mean over 4×2 outputs is 1/(4*2)*4 rows = 0.5 each.
	for _, v := range l.B.Grad.Data {
		if math.Abs(float64(v)-0.5) > 1e-6 {
			t.Fatalf("bias grad %v want 0.5", v)
		}
	}
}

func TestFreezeUnfreezeCounts(t *testing.T) {
	rng := tensor.NewRNG(3)
	ff := NewFeedForward(8, 16, rng)
	trainable := func() int { return len(FlattenParams(TrainableParams(ff))) }
	total := len(FlattenParams(ff.Params()))
	if total != 8*16+16+16*8+8 {
		t.Fatalf("parameter count = %d", total)
	}
	if trainable() != total {
		t.Fatal("fresh module should be fully trainable")
	}
	Freeze(ff)
	if trainable() != 0 {
		t.Fatal("Freeze left trainable params")
	}
	for _, p := range ff.Params() {
		p.SetRequiresGrad(true)
	}
	if trainable() != total {
		t.Fatal("unfreezing every parameter incomplete")
	}
}

func TestEmbeddingForwardShape(t *testing.T) {
	rng := tensor.NewRNG(4)
	e := NewEmbedding(10, 5, rng)
	out := e.Forward([][]int{{1, 2, 3}, {4, 5, 6}})
	s := out.Value.Shape()
	if s[0] != 2 || s[1] != 3 || s[2] != 5 {
		t.Fatalf("embedding shape %v", s)
	}
}

func TestEmbeddingRaggedPanics(t *testing.T) {
	rng := tensor.NewRNG(5)
	e := NewEmbedding(10, 5, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Forward([][]int{{1, 2}, {3}})
}

func TestAttentionShapesSelfAndCross(t *testing.T) {
	rng := tensor.NewRNG(6)
	mha := NewMultiHeadAttention(8, 2, rng)
	q := autograd.NewVar(rng.Randn(1, 2, 5, 8))
	ctx := autograd.NewVar(rng.Randn(1, 2, 7, 8))
	self := mha.Forward(q, q, nil)
	if s := self.Value.Shape(); s[0] != 2 || s[1] != 5 || s[2] != 8 {
		t.Fatalf("self-attention shape %v", s)
	}
	cross := mha.Forward(q, ctx, nil)
	if s := cross.Value.Shape(); s[0] != 2 || s[1] != 5 || s[2] != 8 {
		t.Fatalf("cross-attention shape %v", s)
	}
}

func TestCausalMaskBlocksFuture(t *testing.T) {
	rng := tensor.NewRNG(7)
	mha := NewMultiHeadAttention(4, 1, rng)
	// Two inputs identical except at the last position: causal attention
	// output at position 0 must be identical.
	a := rng.Randn(1, 1, 3, 4)
	b := a.Clone()
	for i := 0; i < 4; i++ {
		b.Data[2*4+i] += 5
	}
	mask := CausalMask(1, 1, 3)
	outA := mha.Forward(autograd.NewVar(a), autograd.NewVar(a), mask)
	outB := mha.Forward(autograd.NewVar(b), autograd.NewVar(b), mask)
	for i := 0; i < 4; i++ { // position 0 row
		if math.Abs(float64(outA.Value.Data[i]-outB.Value.Data[i])) > 1e-6 {
			t.Fatal("causal mask leaked future information")
		}
	}
}

func TestPaddingMaskIgnoresPaddedPositions(t *testing.T) {
	rng := tensor.NewRNG(8)
	mha := NewMultiHeadAttention(4, 2, rng)
	a := rng.Randn(1, 1, 4, 4)
	b := a.Clone()
	// Perturb positions 2,3 which the mask marks invalid.
	for i := 2 * 4; i < 4*4; i++ {
		b.Data[i] += 3
	}
	mask := PaddingMask([]int{2}, 2, 4, 4)
	outA := mha.Forward(autograd.NewVar(a), autograd.NewVar(a), mask)
	outB := mha.Forward(autograd.NewVar(b), autograd.NewVar(a), mask)
	// Queries from valid positions (0,1) must match: context rows 2,3 are
	// masked so only query-side perturbation could differ, and here the
	// context is what we perturbed in outB via query positions... compare
	// rows 0,1 where query inputs are identical.
	for i := 0; i < 2*4; i++ {
		if math.Abs(float64(outA.Value.Data[i]-outB.Value.Data[i])) > 1e-6 {
			t.Fatal("padding mask leaked padded positions")
		}
	}
}

func TestFlattenUnflattenRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(9)
	ff := NewFeedForward(4, 8, rng)
	params := ff.Params()
	flat := FlattenParams(params)
	if want := 4*8 + 8 + 8*4 + 4; len(flat) != want {
		t.Fatalf("flat len %d want %d", len(flat), want)
	}
	// Zero then restore.
	saved := append([]float32(nil), flat...)
	for _, p := range params {
		p.Value.Zero()
	}
	UnflattenParams(params, saved)
	again := FlattenParams(params)
	for i := range saved {
		if saved[i] != again[i] {
			t.Fatal("param roundtrip mismatch")
		}
	}
}

func TestFlattenGradsZeroFill(t *testing.T) {
	rng := tensor.NewRNG(10)
	l := NewLinear(2, 2, rng)
	flat := []float32{7, 7, 7, 7, 7, 7} // a reused buffer's stale values
	FlattenGrads(flat, l.Params())
	for _, v := range flat {
		if v != 0 {
			t.Fatal("missing grads must flatten to zeros")
		}
	}
	UnflattenGrads(l.Params(), []float32{1, 2, 3, 4, 5, 6})
	if l.W.Grad.Data[3] != 4 || l.B.Grad.Data[1] != 6 {
		t.Fatal("UnflattenGrads wrote wrong positions")
	}
}

func TestCopyParams(t *testing.T) {
	rng := tensor.NewRNG(11)
	a := NewLinear(3, 3, rng)
	b := NewLinear(3, 3, tensor.NewRNG(99))
	CopyParams(b, a)
	for i := range a.W.Value.Data {
		if a.W.Value.Data[i] != b.W.Value.Data[i] {
			t.Fatal("CopyParams mismatch")
		}
	}
}

func TestAttentionEndToEndGradient(t *testing.T) {
	rng := tensor.NewRNG(12)
	mha := NewMultiHeadAttention(4, 2, rng)
	x := autograd.NewVar(rng.Randn(1, 1, 3, 4))
	loss := autograd.Mean(mha.Forward(x, x, CausalMask(1, 2, 3)))
	autograd.Backward(loss)
	for _, p := range mha.Params() {
		if p.Grad == nil {
			t.Fatal("attention param missing grad")
		}
		if !p.Grad.IsFinite() {
			t.Fatal("non-finite attention grad")
		}
	}
}
