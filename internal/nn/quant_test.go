package nn

import (
	"math"
	"testing"

	"pac/internal/autograd"
	"pac/internal/tensor"
)

func withBackend(t *testing.T, name string, fn func()) {
	t.Helper()
	prev := tensor.ActiveBackend().Name()
	if err := tensor.SetBackend(name); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tensor.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

func maxAbsDiff(a, b *tensor.Tensor) float64 {
	var m float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i] - b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// TestLinearQuantizedForwardParity: a frozen quantized Linear under the
// int8 backend must agree with its fp32 forward to within quantization
// tolerance, and must match shapes exactly.
func TestLinearQuantizedForwardParity(t *testing.T) {
	rng := tensor.NewRNG(61)
	l := NewLinear(32, 16, rng)
	l.W.SetRequiresGrad(false)
	l.B.SetRequiresGrad(false)
	if !l.QuantizeFrozen() {
		t.Fatal("QuantizeFrozen refused a frozen layer")
	}
	x := autograd.NewVar(rng.Randn(1, 4, 32))
	ref := l.Forward(x) // fp32: default backend is not quantized

	withBackend(t, "int8", func() {
		got := l.Forward(x)
		if got.RequiresGrad() {
			t.Fatal("quantized forward must not require grad (frozen everything)")
		}
		if d := maxAbsDiff(got.Value, ref.Value); d > 0.05 {
			t.Fatalf("quantized forward drifted %v from fp32", d)
		}
	})
}

// TestLinearQuantizedGating: the int8 path must stay cold when (a) the
// backend is not quantized, (b) the input carries gradients, or (c) the
// weight is trainable — in each case the output is the exact fp32 one.
func TestLinearQuantizedGating(t *testing.T) {
	rng := tensor.NewRNG(62)
	l := NewLinear(16, 8, rng)
	l.W.SetRequiresGrad(false)
	l.B.SetRequiresGrad(false)
	if !l.QuantizeFrozen() {
		t.Fatal("QuantizeFrozen refused a frozen layer")
	}
	x := autograd.NewVar(rng.Randn(1, 3, 16))

	// (a) the fp32 backend ignores QW entirely: with and without the
	// quantized form the output is bitwise identical.
	withBackend(t, "generic", func() {
		got := l.Forward(x)
		qw := l.QW
		l.QW = nil
		ref := l.Forward(x)
		l.QW = qw
		for i := range ref.Value.Data {
			if got.Value.Data[i] != ref.Value.Data[i] {
				t.Fatalf("generic backend took the quantized path (elem %d differs)", i)
			}
		}
	})

	// (b) an input that needs gradients must run fp32 even under int8,
	// and gradients must actually flow.
	withBackend(t, "int8", func() {
		xg := autograd.NewParam(rng.Randn(1, 3, 16))
		out := l.Forward(xg)
		if !out.RequiresGrad() {
			t.Fatal("grad-carrying input lost its gradient path")
		}
		autograd.Backward(autograd.Mean(out))
		if xg.Grad == nil {
			t.Fatal("no gradient reached the input")
		}
	})

	// (c) a trainable weight refuses quantization outright.
	lt := NewLinear(16, 8, rng)
	if lt.QuantizeFrozen() {
		t.Fatal("QuantizeFrozen accepted a trainable weight")
	}
	if lt.QW != nil {
		t.Fatal("refused quantization still built QW")
	}
}

func TestQuantizeFrozenRefusesLoRA(t *testing.T) {
	rng := tensor.NewRNG(63)
	l := NewLinear(8, 8, rng)
	l.W.SetRequiresGrad(false)
	l.B.SetRequiresGrad(false)
	l.AttachLoRA(2, 1.0, rng)
	if l.QuantizeFrozen() {
		t.Fatal("QuantizeFrozen accepted a LoRA-carrying layer")
	}
}

// TestFeedForwardQuantizedParity covers the fused FF path, which
// bypasses Linear.Forward and needs its own quantized branch.
func TestFeedForwardQuantizedParity(t *testing.T) {
	rng := tensor.NewRNG(64)
	ff := NewFeedForward(24, 48, rng)
	Freeze(ff)
	if n := ff.QuantizeFrozen(); n != 2 {
		t.Fatalf("quantized %d of 2 FF projections", n)
	}
	x := autograd.NewVar(rng.Randn(1, 5, 24))
	ref := ff.Forward(x)

	withBackend(t, "int8", func() {
		got := ff.Forward(x)
		if got.RequiresGrad() {
			t.Fatal("quantized FF forward must not require grad")
		}
		if d := maxAbsDiff(got.Value, ref.Value); d > 0.1 {
			t.Fatalf("quantized FF drifted %v from fp32", d)
		}
	})
}

// TestAttentionQuantizedParity runs a full attention block with all four
// projections quantized against the fp32 reference.
func TestAttentionQuantizedParity(t *testing.T) {
	rng := tensor.NewRNG(65)
	mha := NewMultiHeadAttention(32, 4, rng)
	Freeze(mha)
	if n := mha.QuantizeFrozen(); n != 4 {
		t.Fatalf("quantized %d of 4 attention projections", n)
	}
	x := autograd.NewVar(rng.Randn(1, 2, 6, 32))
	ref := mha.Forward(x, x, nil)

	withBackend(t, "int8", func() {
		got := mha.Forward(x, x, nil)
		if d := maxAbsDiff(got.Value, ref.Value); d > 0.1 {
			t.Fatalf("quantized attention drifted %v from fp32", d)
		}
	})
}
