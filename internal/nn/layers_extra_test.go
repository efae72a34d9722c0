package nn

import (
	"math"
	"testing"

	"pac/internal/autograd"
	"pac/internal/tensor"
)

func TestLoRAAttachAndGradients(t *testing.T) {
	rng := tensor.NewRNG(21)
	l := NewLinear(6, 4, rng)
	base := l.Forward(autograd.NewVar(rng.Randn(1, 3, 6)))

	l.AttachLoRA(2, 0.5, rng.Split())
	if len(l.Params()) != 4 {
		t.Fatalf("params after LoRA attach: %d", len(l.Params()))
	}
	x := autograd.NewVar(rng.Randn(1, 3, 6))
	// B starts zero: output equals plain affine.
	Freeze(l)
	l.LoraA.SetRequiresGrad(true)
	l.LoraB.SetRequiresGrad(true)
	y := l.Forward(x)
	plain := autograd.AddBias(autograd.MatMul(x, l.W), l.B)
	for i := range y.Value.Data {
		if math.Abs(float64(y.Value.Data[i]-plain.Value.Data[i])) > 1e-6 {
			t.Fatal("zero-initialized LoRA changed the output")
		}
	}
	// Gradients reach only the bypass.
	autograd.Backward(autograd.Mean(y))
	if l.LoraB.Grad == nil || l.LoraA.Grad != nil && tensor.MaxAbs(l.LoraA.Grad) == 0 && tensor.MaxAbs(l.LoraB.Grad) == 0 {
		t.Fatal("LoRA params received no gradient")
	}
	if l.W.Grad != nil {
		t.Fatal("frozen weight received a gradient")
	}
	_ = base
}

func TestBottleneckResidualIdentityAtInit(t *testing.T) {
	rng := tensor.NewRNG(22)
	b := NewBottleneck(8, 2, rng)
	x := autograd.NewVar(rng.Randn(1, 4, 8))
	y := b.Forward(x)
	for i := range x.Value.Data {
		if x.Value.Data[i] != y.Value.Data[i] {
			t.Fatal("fresh bottleneck (Up=0) must be the identity")
		}
	}
	if len(b.Params()) != 2 {
		t.Fatalf("bottleneck params %d", len(b.Params()))
	}
}

func TestBottleneckGradCheck(t *testing.T) {
	rng := tensor.NewRNG(23)
	b := NewBottleneck(4, 2, rng)
	// Give Up nonzero values so gradients are informative.
	copy(b.Up.Value.Data, rng.Randn(0.3, len(b.Up.Value.Data)).Data)
	x := autograd.NewVar(rng.Randn(1, 2, 4))
	w := rng.Randn(1, 2, 4)
	loss := func() *autograd.Variable {
		return autograd.Mean(autograd.Mul(b.Forward(x), autograd.NewVar(w)))
	}
	for _, p := range b.Params() {
		p.ZeroGrad()
	}
	autograd.Backward(loss())
	const h = 1e-2
	for pi, p := range b.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := float64(loss().Value.Data[0])
			p.Value.Data[i] = orig - h
			down := float64(loss().Value.Data[0])
			p.Value.Data[i] = orig
			num := (up - down) / (2 * h)
			got := float64(p.Grad.Data[i])
			if math.Abs(num-got) > 2e-2 {
				t.Fatalf("param %d elem %d: numeric %v analytic %v", pi, i, num, got)
			}
		}
	}
}

func TestLinearInOutAccessors(t *testing.T) {
	l := NewLinear(7, 3, tensor.NewRNG(24))
	if l.in != 7 || l.Out() != 3 {
		t.Fatalf("in/Out = %d/%d", l.in, l.Out())
	}
}

func TestAttentionDimHeadsMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiHeadAttention(10, 3, tensor.NewRNG(25))
}

func TestPaddingMaskClampsOverlongLens(t *testing.T) {
	m := PaddingMask([]int{99}, 1, 2, 4) // valid length beyond kLen
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("overlong valid length should mask nothing")
		}
	}
}

func TestUnflattenParamsLengthMismatchPanics(t *testing.T) {
	l := NewLinear(2, 2, tensor.NewRNG(26))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	UnflattenParams(l.Params(), []float32{1, 2, 3})
}

func TestCopyParamsMismatchPanics(t *testing.T) {
	a := NewLinear(2, 2, tensor.NewRNG(27))
	b := NewFeedForward(2, 4, tensor.NewRNG(28))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CopyParams(a, b)
}
