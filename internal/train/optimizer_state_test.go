package train

import (
	"testing"

	"pac/internal/autograd"
	"pac/internal/tensor"
)

// stateParams builds a small parameter set with deterministic values.
func stateParams(seed float32) []*autograd.Variable {
	mk := func(vals ...float32) *autograd.Variable {
		return autograd.NewParam(tensor.FromSlice(vals, len(vals)))
	}
	return []*autograd.Variable{
		mk(seed, seed+1, seed+2),
		mk(seed * 2),
	}
}

// setGrads installs a deterministic gradient on every parameter,
// varying with the step so moments evolve.
func setGrads(params []*autograd.Variable, step int) {
	for pi, p := range params {
		g := tensor.New(p.Value.Shape()...)
		for j := range g.Data {
			g.Data[j] = 0.1*float32(step+1) + 0.01*float32(pi+j)
		}
		p.Grad = g
	}
}

// TestAdamStateRoundTrip is the resume-equivalence property at the
// optimizer level: exporting Adam's moments mid-run and importing them
// into a fresh optimizer (over identical weights) must continue the
// exact update trajectory.
func TestAdamStateRoundTrip(t *testing.T) {
	a := stateParams(1)
	optA := NewAdam(a, 0.05)
	for s := 0; s < 3; s++ {
		setGrads(a, s)
		optA.Step()
	}

	// Clone the interrupted run: same weights, fresh optimizer, state
	// imported from the snapshot.
	b := stateParams(0)
	for i := range b {
		b[i].Value.CopyFrom(a[i].Value)
	}
	optB := NewAdam(b, 0.05)
	ts, step := optA.StateTensors()
	if step != 3 {
		t.Fatalf("step = %d, want 3", step)
	}
	// Clone before importing: LoadState must copy, not alias.
	cl := make([]*tensor.Tensor, len(ts))
	for i, x := range ts {
		cl[i] = x.Clone()
	}
	if err := optB.LoadState(cl, step); err != nil {
		t.Fatal(err)
	}

	for s := 3; s < 6; s++ {
		setGrads(a, s)
		optA.Step()
		setGrads(b, s)
		optB.Step()
	}
	for i := range a {
		for j := range a[i].Value.Data {
			if a[i].Value.Data[j] != b[i].Value.Data[j] {
				t.Fatalf("param %d elem %d diverged: %v vs %v",
					i, j, a[i].Value.Data[j], b[i].Value.Data[j])
			}
		}
	}
	// No aliasing: mutating the imported clone must not touch optB.
	cl[0].Data[0] += 100
	setGrads(a, 6)
	optA.Step()
	setGrads(b, 6)
	optB.Step()
	if a[0].Value.Data[0] != b[0].Value.Data[0] {
		t.Fatal("LoadState aliased the caller's tensors")
	}
}

func TestSGDStateRoundTrip(t *testing.T) {
	a := stateParams(1)
	optA := NewSGD(a, 0.05, 0.9, 0)
	for s := 0; s < 3; s++ {
		setGrads(a, s)
		optA.Step()
	}

	b := stateParams(0)
	for i := range b {
		b[i].Value.CopyFrom(a[i].Value)
	}
	optB := NewSGD(b, 0.05, 0.9, 0)
	ts, step := optA.StateTensors()
	if err := optB.LoadState(ts, step); err != nil {
		t.Fatal(err)
	}
	for s := 3; s < 6; s++ {
		setGrads(a, s)
		optA.Step()
		setGrads(b, s)
		optB.Step()
	}
	for i := range a {
		for j := range a[i].Value.Data {
			if a[i].Value.Data[j] != b[i].Value.Data[j] {
				t.Fatalf("param %d elem %d diverged", i, j)
			}
		}
	}
}

func TestLoadStateRejectsMismatch(t *testing.T) {
	p := stateParams(1)
	adam := NewAdam(p, 0.01)
	if err := adam.LoadState(nil, 0); err == nil {
		t.Fatal("Adam accepted wrong tensor count")
	}
	ts, _ := adam.StateTensors()
	bad := make([]*tensor.Tensor, len(ts))
	for i := range bad {
		bad[i] = tensor.New(7) // wrong shape everywhere
	}
	if err := adam.LoadState(bad, 1); err == nil {
		t.Fatal("Adam accepted wrong shapes")
	}
	if err := adam.LoadState(ts, -1); err == nil {
		t.Fatal("Adam accepted negative step")
	}

	sgd := NewSGD(p, 0.01, 0.9, 0)
	if err := sgd.LoadState(nil, 0); err == nil {
		t.Fatal("SGD accepted wrong tensor count")
	}
	// Momentum-free SGD is stateless: empty state round-trips.
	plain := NewSGD(p, 0.01, 0, 0)
	ets, _ := plain.StateTensors()
	if len(ets) != 0 {
		t.Fatalf("plain SGD exported %d state tensors", len(ets))
	}
	if err := plain.LoadState(nil, 0); err != nil {
		t.Fatalf("plain SGD rejected empty state: %v", err)
	}
}
