package autograd

import (
	"testing"

	"pac/internal/tensor"
)

// fixture returns a deterministic [batch, seq, in] input and [in, out]
// weight + [out] bias for fused-vs-composed comparisons.
func fusedFixture() (x1, x2 *Variable, w, b *Variable) {
	rng := tensor.NewRNG(7)
	xv := rng.Randn(1, 2, 3, 4)
	x1 = NewParam(xv)
	x2 = NewParam(xv.Clone())
	w = NewParam(rng.Randn(1, 4, 5))
	b = NewParam(rng.Randn(1, 5))
	return
}

// bitwiseEqual fails the test unless a and b match exactly (no epsilon:
// the fused kernels promise bit-identical arithmetic).
func bitwiseEqual(t *testing.T, name string, a, b *tensor.Tensor) {
	t.Helper()
	if a == nil || b == nil {
		if a != b {
			t.Fatalf("%s: one side nil", name)
		}
		return
	}
	if a.Numel() != b.Numel() {
		t.Fatalf("%s: numel %d vs %d", name, a.Numel(), b.Numel())
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, a.Data[i], b.Data[i])
		}
	}
}

func TestAffineMatchesComposedBitwise(t *testing.T) {
	x1, x2, w, b := fusedFixture()
	fused := Affine(x1, w, b)
	composed := Reshape(AddBias(MatMul(x2, w), b), 2, 3, 5)
	bitwiseEqual(t, "forward", fused.Value, composed.Value)

	Backward(Sum(fused))
	Backward(Sum(composed))
	bitwiseEqual(t, "dx", x1.Grad, x2.Grad)
}

func TestAffineGELUMatchesComposedBitwise(t *testing.T) {
	x1, x2, w, b := fusedFixture()
	fused := AffineGELU(x1, w, b)
	composed := GELU(AddBias(MatMul(x2, w), b))
	bitwiseEqual(t, "forward", fused.Value, composed.Value)

	Backward(Sum(fused))
	Backward(Sum(composed))
	bitwiseEqual(t, "dx", x1.Grad, x2.Grad)
}

func TestAddGELUMatchesComposedBitwise(t *testing.T) {
	rng := tensor.NewRNG(11)
	av := rng.Randn(1, 3, 4)
	bv := rng.Randn(1, 3, 4)
	a1, b1 := NewParam(av), NewParam(bv)
	a2, b2 := NewParam(av.Clone()), NewParam(bv.Clone())

	fused := AddGELU(a1, b1)
	composed := GELU(Add(a2, b2))
	bitwiseEqual(t, "forward", fused.Value, composed.Value)

	Backward(Sum(fused))
	Backward(Sum(composed))
	bitwiseEqual(t, "da", a1.Grad, a2.Grad)
	bitwiseEqual(t, "db", b1.Grad, b2.Grad)
}

func TestBatchMatMulTScaledMatchesComposedBitwise(t *testing.T) {
	rng := tensor.NewRNG(13)
	qv := rng.Randn(1, 2, 3, 4)
	kv := rng.Randn(1, 2, 5, 4)
	q1, k1 := NewParam(qv), NewParam(kv)
	q2, k2 := NewParam(qv.Clone()), NewParam(kv.Clone())
	const alpha = 0.5

	fused := BatchMatMulTScaled(q1, k1, alpha)
	composed := Scale(BatchMatMulT(q2, k2), alpha)
	bitwiseEqual(t, "forward", fused.Value, composed.Value)

	Backward(Sum(fused))
	Backward(Sum(composed))
	bitwiseEqual(t, "dq", q1.Grad, q2.Grad)
	bitwiseEqual(t, "dk", k1.Grad, k2.Grad)
}

func TestSoftmaxInPlaceMatchesSoftmaxBitwise(t *testing.T) {
	rng := tensor.NewRNG(17)
	xv := rng.Randn(1, 4, 6)
	// SoftmaxInPlace consumes its input, so give it an interior node it
	// owns rather than a leaf.
	x1 := NewParam(xv)
	x2 := NewParam(xv.Clone())

	fused := SoftmaxInPlace(Scale(x1, 1))
	composed := Softmax(Scale(x2, 1))
	bitwiseEqual(t, "forward", fused.Value, composed.Value)

	Backward(Sum(fused))
	Backward(Sum(composed))
	bitwiseEqual(t, "dx", x1.Grad, x2.Grad)
}

// TestLayerNormFrozenInputSkipsDx: a LayerNorm over an input that takes
// no gradient (the side network's backbone tap) gives the dγ/dβ of the
// path that computes dx, bit for bit, and its backward checks out one
// pooled buffer fewer: the dx it no longer computes.
func TestLayerNormFrozenInputSkipsDx(t *testing.T) {
	rng := tensor.NewRNG(17)
	xv, wv := rng.Randn(1, 6, 40), rng.Randn(1, 6, 40)
	gv, bv := rng.Randn(1, 40), rng.Randn(1, 40)
	backward := func(x *Variable) (dGamma, dBeta *tensor.Tensor, gets int64) {
		gamma, beta := NewParam(gv.Clone()), NewParam(bv.Clone())
		// The weights make the upstream gradient differ per element.
		loss := Sum(Mul(LayerNorm(x, gamma, beta, 1e-5), NewVar(wv)))
		before := tensor.ReadPoolStats()
		Backward(loss)
		after := tensor.ReadPoolStats()
		return gamma.Grad, beta.Grad, after.Hits + after.Misses - before.Hits - before.Misses
	}
	x := NewParam(xv.Clone())
	backward(x) // allocates x's own gradient, so the count below is dx alone
	dGamma, dBeta, withDx := backward(x)
	frozenDGamma, frozenDBeta, frozen := backward(NewVar(xv.Clone()))
	bitwiseEqual(t, "dGamma", frozenDGamma, dGamma)
	bitwiseEqual(t, "dBeta", frozenDBeta, dBeta)
	if withDx-frozen != 1 {
		t.Fatalf("backward with dx took %d pooled buffers, without dx %d: want exactly one fewer", withDx, frozen)
	}
}
