package autograd

import (
	"math"
	"testing"

	"pac/internal/tensor"
)

func TestGradMeanSeqAndBroadcastSeq(t *testing.T) {
	g := tensor.NewRNG(31)
	a := NewParam(g.Randn(1, 2, 4, 3))
	w := g.Randn(1, 2, 3)
	gradCheck(t, func() *Variable {
		return Mean(Mul(MeanSeq(a), NewVar(w)))
	}, []*Variable{a}, 1e-2)

	b := NewParam(g.Randn(1, 2, 3))
	w2 := g.Randn(1, 2, 5, 3)
	gradCheck(t, func() *Variable {
		return Mean(Mul(BroadcastSeq(b, 5), NewVar(w2)))
	}, []*Variable{b}, 1e-2)
}

func TestMeanSeqBroadcastSeqInverseShapes(t *testing.T) {
	g := tensor.NewRNG(32)
	a := NewVar(g.Randn(1, 3, 1, 4)) // seq 1: mean == identity
	m := MeanSeq(a)
	back := BroadcastSeq(m, 1)
	for i := range a.Value.Data {
		if math.Abs(float64(a.Value.Data[i]-back.Value.Data[i])) > 1e-6 {
			t.Fatal("seq-1 mean/broadcast should round-trip")
		}
	}
}

func TestGradSumAndAddConst(t *testing.T) {
	g := tensor.NewRNG(33)
	a := NewParam(g.Randn(1, 2, 3))
	c := g.Randn(1, 2, 3)
	gradCheck(t, func() *Variable {
		return Scale(Sum(AddConstInPlace(Scale(a, 1), c)), 0.25)
	}, []*Variable{a}, 1e-2)
}

func TestBackwardMultiAccumulatesSharedSubgraph(t *testing.T) {
	// y1 = a², y2 = 3a share the leaf: one BackwardMulti pass must
	// accumulate d(y1)+2·d(y2) given seeds (1, 2).
	a := NewParam(tensor.FromSlice([]float32{2}, 1))
	y1 := Mul(a, a)
	y2 := Scale(a, 3)
	BackwardMulti([]*Variable{y1, y2},
		[]*tensor.Tensor{tensor.Ones(1), tensor.Full(2, 1)})
	// d = 1·(2a) + 2·3 = 4 + 6 = 10.
	if got := a.Grad.Data[0]; got != 10 {
		t.Fatalf("multi-root grad %v want 10", got)
	}
}

func TestBackwardMultiNilAndMismatch(t *testing.T) {
	a := NewParam(tensor.FromSlice([]float32{1}, 1))
	y := Mul(a, a)
	// nil entries are skipped.
	BackwardMulti([]*Variable{y, nil}, []*tensor.Tensor{tensor.Ones(1), nil})
	if a.Grad == nil {
		t.Fatal("skipped nil root broke the pass")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch accepted")
		}
	}()
	BackwardMulti([]*Variable{y}, nil)
}

func TestBackwardMultiSeedShapePanics(t *testing.T) {
	a := NewParam(tensor.New(2))
	y := Mul(a, a)
	defer func() {
		if recover() == nil {
			t.Fatal("seed shape mismatch accepted")
		}
	}()
	BackwardMulti([]*Variable{y}, []*tensor.Tensor{tensor.New(3)})
}

func TestGraphSizeStopsAtFrozenLeaves(t *testing.T) {
	g := tensor.NewRNG(34)
	frozen := NewVar(g.Randn(1, 2, 2))
	trainable := NewParam(g.Randn(1, 2, 2))
	out := Mul(Add(frozen, trainable), frozen)
	// Nodes: out, add, trainable — frozen leaves excluded.
	if got := GraphSize(out); got != 3 {
		t.Fatalf("GraphSize %d want 3", got)
	}
}

func TestGradSliceRowsBoundary(t *testing.T) {
	g := tensor.NewRNG(35)
	a := NewParam(g.Randn(1, 4, 2))
	gradCheck(t, func() *Variable {
		return Mean(SliceRows(a, 0, 4)) // full-range slice
	}, []*Variable{a}, 1e-2)
}

func TestDropoutFullDropProbability(t *testing.T) {
	g := tensor.NewRNG(36)
	a := NewParam(tensor.Ones(10, 10))
	out := Dropout(a, 0, true, g)
	if out != a {
		t.Fatal("p=0 dropout must be identity")
	}
}
