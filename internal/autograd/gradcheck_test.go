package autograd

import (
	"math"
	"testing"

	"pac/internal/tensor"
)

// gradCheck verifies analytic gradients of params against central finite
// differences of the scalar loss produced by forward.
func gradCheck(t *testing.T, forward func() *Variable, params []*Variable, tol float64) {
	t.Helper()
	loss := forward()
	if loss.Value.Numel() != 1 {
		t.Fatal("gradCheck: forward must return a scalar")
	}
	for _, p := range params {
		p.ZeroGrad()
	}
	Backward(loss)
	const h = 1e-2
	for pi, p := range params {
		analytic := p.Grad
		if analytic == nil {
			t.Fatalf("param %d received no gradient", pi)
		}
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := float64(forward().Value.Data[0])
			p.Value.Data[i] = orig - h
			down := float64(forward().Value.Data[0])
			p.Value.Data[i] = orig
			numeric := (up - down) / (2 * h)
			got := float64(analytic.Data[i])
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(got)))
			if math.Abs(numeric-got)/scale > tol {
				t.Fatalf("param %d elem %d: numeric %v analytic %v", pi, i, numeric, got)
			}
		}
	}
}

func TestGradAdd(t *testing.T) {
	g := tensor.NewRNG(1)
	a := NewParam(g.Randn(1, 2, 3))
	b := NewParam(g.Randn(1, 2, 3))
	gradCheck(t, func() *Variable { return Mean(Add(a, b)) }, []*Variable{a, b}, 1e-2)
}

func TestGradMul(t *testing.T) {
	g := tensor.NewRNG(3)
	a := NewParam(g.Randn(1, 2, 3))
	b := NewParam(g.Randn(1, 2, 3))
	gradCheck(t, func() *Variable { return Mean(Mul(a, b)) }, []*Variable{a, b}, 1e-2)
}

func TestGradScaleAndBias(t *testing.T) {
	g := tensor.NewRNG(4)
	m := NewParam(g.Randn(1, 3, 4))
	bias := NewParam(g.Randn(1, 4))
	gradCheck(t, func() *Variable { return Mean(AddBias(Scale(m, 1.5), bias)) }, []*Variable{m, bias}, 1e-2)
}

func TestGradMatMul(t *testing.T) {
	g := tensor.NewRNG(5)
	a := NewParam(g.Randn(1, 3, 4))
	b := NewParam(g.Randn(1, 4, 2))
	gradCheck(t, func() *Variable { return Mean(MatMul(a, b)) }, []*Variable{a, b}, 1e-2)
}

func TestGradBatchMatMul(t *testing.T) {
	g := tensor.NewRNG(6)
	a := NewParam(g.Randn(1, 2, 3, 4))
	b := NewParam(g.Randn(1, 2, 4, 5))
	gradCheck(t, func() *Variable { return Mean(BatchMatMul(a, b)) }, []*Variable{a, b}, 1e-2)
}

func TestGradBatchMatMulT(t *testing.T) {
	g := tensor.NewRNG(7)
	a := NewParam(g.Randn(1, 2, 3, 4))
	b := NewParam(g.Randn(1, 2, 5, 4))
	gradCheck(t, func() *Variable { return Mean(BatchMatMulT(a, b)) }, []*Variable{a, b}, 1e-2)
}

func TestGradActivations(t *testing.T) {
	g := tensor.NewRNG(8)
	for name, fn := range map[string]func(*Variable) *Variable{
		"gelu":    GELU,
		"sigmoid": Sigmoid,
	} {
		a := NewParam(g.Uniform(-2, 2, 2, 5))
		gradCheck(t, func() *Variable { return Mean(fn(a)) }, []*Variable{a}, 2e-2)
		_ = name
	}
}

func TestGradSoftmax(t *testing.T) {
	g := tensor.NewRNG(9)
	a := NewParam(g.Randn(1, 2, 4))
	w := g.Randn(1, 2, 4) // random projection so the loss depends on all outputs
	gradCheck(t, func() *Variable {
		return Mean(Mul(Softmax(a), NewVar(w)))
	}, []*Variable{a}, 2e-2)
}

func TestGradLayerNorm(t *testing.T) {
	g := tensor.NewRNG(10)
	a := NewParam(g.Randn(1, 2, 6))
	gamma := NewParam(g.Uniform(0.5, 1.5, 6))
	beta := NewParam(g.Randn(0.1, 6))
	w := g.Randn(1, 2, 6)
	gradCheck(t, func() *Variable {
		return Mean(Mul(LayerNorm(a, gamma, beta, 1e-5), NewVar(w)))
	}, []*Variable{a, gamma, beta}, 3e-2)
}

func TestGradEmbedding(t *testing.T) {
	g := tensor.NewRNG(11)
	table := NewParam(g.Randn(1, 7, 4))
	ids := []int{0, 3, 3, 6}
	w := g.Randn(1, 4, 4)
	gradCheck(t, func() *Variable {
		return Mean(Mul(Embedding(table, ids), NewVar(w)))
	}, []*Variable{table}, 1e-2)
}

func TestGradConcatSlice(t *testing.T) {
	g := tensor.NewRNG(12)
	a := NewParam(g.Randn(1, 2, 3))
	b := NewParam(g.Randn(1, 1, 3))
	gradCheck(t, func() *Variable {
		cat := Concat(a, b)
		return Mean(SliceRows(cat, 1, 3))
	}, []*Variable{a, b}, 1e-2)
}

func TestGradReshapeSplitMergeHeads(t *testing.T) {
	g := tensor.NewRNG(14)
	a := NewParam(g.Randn(1, 2, 3, 8))
	w := g.Randn(1, 2, 3, 8)
	gradCheck(t, func() *Variable {
		s := SplitHeads(a, 4)
		m := MergeHeads(s, 4)
		return Mean(Mul(m, NewVar(w)))
	}, []*Variable{a}, 1e-2)
}

func TestGradSoftmaxCrossEntropy(t *testing.T) {
	g := tensor.NewRNG(15)
	logits := NewParam(g.Randn(1, 4, 5))
	labels := []int{0, 2, 4, 1}
	gradCheck(t, func() *Variable {
		return SoftmaxCrossEntropy(logits, labels)
	}, []*Variable{logits}, 2e-2)
}

func TestGradMSE(t *testing.T) {
	g := tensor.NewRNG(16)
	pred := NewParam(g.Randn(1, 3, 2))
	target := g.Randn(1, 3, 2)
	gradCheck(t, func() *Variable {
		return MSE(pred, target)
	}, []*Variable{pred}, 1e-2)
}

func TestGradChainedMLP(t *testing.T) {
	// Full two-layer MLP with layernorm: exercises composition.
	g := tensor.NewRNG(17)
	x := NewVar(g.Randn(1, 4, 6))
	w1 := NewParam(g.XavierUniform(6, 8, 6, 8))
	b1 := NewParam(tensor.New(8))
	w2 := NewParam(g.XavierUniform(8, 3, 8, 3))
	b2 := NewParam(tensor.New(3))
	gamma := NewParam(tensor.Ones(8))
	beta := NewParam(tensor.New(8))
	labels := []int{0, 1, 2, 1}
	gradCheck(t, func() *Variable {
		h := AddBias(MatMul(x, w1), b1)
		h = LayerNorm(h, gamma, beta, 1e-5)
		h = GELU(h)
		logits := AddBias(MatMul(h, w2), b2)
		return SoftmaxCrossEntropy(logits, labels)
	}, []*Variable{w1, b1, w2, b2, gamma, beta}, 3e-2)
}
