// Package train provides optimizers, loss/metric computation, and the
// single-device reference trainer that the distributed engines are
// validated against.
package train

import (
	"fmt"
	"math"

	"pac/internal/autograd"
	"pac/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update and clears gradients.
	Step()
	// Params returns the parameter set the optimizer manages.
	Params() []*autograd.Variable
}

// Stateful is implemented by optimizers whose update rule carries
// per-parameter state (Adam moments, SGD velocity) that must survive a
// training snapshot: resuming from a checkpoint without it changes the
// update trajectory and breaks resume-equivalence.
type Stateful interface {
	// StateTensors returns the live state tensors in a stable order plus
	// the optimizer's scalar step counter. Callers must clone before
	// mutating or retaining across steps.
	StateTensors() ([]*tensor.Tensor, int)
	// LoadState copies previously exported state (same shapes, same
	// order) into the optimizer, replacing its current state.
	LoadState(ts []*tensor.Tensor, step int) error
}

// SGD is stochastic gradient descent with optional momentum and weight
// decay.
type SGD struct {
	params   []*autograd.Variable
	lr       float32
	momentum float32
	decay    float32
	velocity []*tensor.Tensor
}

// NewSGD returns an SGD optimizer. momentum 0 disables velocity state.
func NewSGD(params []*autograd.Variable, lr, momentum, decay float32) *SGD {
	s := &SGD{params: params, lr: lr, momentum: momentum, decay: decay}
	if momentum != 0 {
		s.velocity = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			s.velocity[i] = tensor.New(p.Value.Shape()...)
		}
	}
	return s
}

// Step implements Optimizer.
func (s *SGD) Step() {
	for i, p := range s.params {
		if p.Grad == nil {
			continue
		}
		g := p.Grad
		if s.decay != 0 {
			g = g.Clone()
			tensor.AxpyInPlace(g, s.decay, p.Value)
		}
		if s.velocity != nil {
			v := s.velocity[i]
			tensor.ScaleInPlace(v, s.momentum)
			tensor.AddInPlace(v, g)
			g = v
		}
		tensor.AxpyInPlace(p.Value, -s.lr, g)
		p.ZeroGrad()
	}
}

// Params implements Optimizer.
func (s *SGD) Params() []*autograd.Variable { return s.params }

// StateTensors implements Stateful: the velocity tensors (empty when
// momentum is disabled — plain SGD is stateless).
func (s *SGD) StateTensors() ([]*tensor.Tensor, int) {
	return s.velocity, 0
}

// LoadState implements Stateful.
func (s *SGD) LoadState(ts []*tensor.Tensor, _ int) error {
	if len(ts) != len(s.velocity) {
		return fmt.Errorf("train: SGD state has %d tensors, want %d", len(ts), len(s.velocity))
	}
	for i, v := range s.velocity {
		if !tensor.SameShape(v, ts[i]) {
			return fmt.Errorf("train: SGD velocity %d shape %v, want %v", i, ts[i].Shape(), v.Shape())
		}
		v.CopyFrom(ts[i])
	}
	return nil
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	params []*autograd.Variable
	lr     float32
	beta1  float32
	beta2  float32
	eps    float32
	m, v   []*tensor.Tensor
	step   int
}

// NewAdam returns an Adam optimizer with standard betas.
func NewAdam(params []*autograd.Variable, lr float32) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Value.Shape()...)
		a.v[i] = tensor.New(p.Value.Shape()...)
	}
	return a
}

// Step implements Optimizer. Each parameter's update runs eight lanes
// wide where the host has AVX2 (tensor.AdamVector) and on update for
// the elements left over, with the same bits either way. A parameter
// that has had a gradient keeps one, zeroed after each step, so in a
// step that gives it none it still takes the zero-gradient update.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - float32(math.Pow(float64(a.beta1), float64(a.step)))
	bc2 := 1 - float32(math.Pow(float64(a.beta2), float64(a.step)))
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		w, g, m, v := p.Value.Data, p.Grad.Data, a.m[i].Data, a.v[i].Data
		j := tensor.AdamVector(w, g, m, v, a.lr, a.beta1, a.beta2, a.eps, bc1, bc2)
		a.update(w[j:], g[j:], m[j:], v[j:], bc1, bc2)
		p.ZeroGrad()
	}
}

// update is Adam's scalar body over one parameter's elements: the path
// where AVX2 is missing, the tail beside the vector kernel, and the
// oracle that kernel is tested against.
func (a *Adam) update(w, g, m, v []float32, bc1, bc2 float32) {
	for j := range w {
		gj := g[j]
		m[j] = a.beta1*m[j] + (1-a.beta1)*gj
		v[j] = a.beta2*v[j] + (1-a.beta2)*gj*gj
		mh := m[j] / bc1
		vh := v[j] / bc2
		upd := a.lr * mh / (float32(math.Sqrt(float64(vh))) + a.eps)
		w[j] -= upd
	}
}

// Params implements Optimizer.
func (a *Adam) Params() []*autograd.Variable { return a.params }

// StateTensors implements Stateful: first moments, then second moments,
// plus the bias-correction step counter.
func (a *Adam) StateTensors() ([]*tensor.Tensor, int) {
	out := make([]*tensor.Tensor, 0, 2*len(a.params))
	out = append(out, a.m...)
	out = append(out, a.v...)
	return out, a.step
}

// LoadState implements Stateful.
func (a *Adam) LoadState(ts []*tensor.Tensor, step int) error {
	if len(ts) != 2*len(a.params) {
		return fmt.Errorf("train: Adam state has %d tensors, want %d", len(ts), 2*len(a.params))
	}
	if step < 0 {
		return fmt.Errorf("train: Adam step %d negative", step)
	}
	dst := append(append([]*tensor.Tensor(nil), a.m...), a.v...)
	for i, t := range dst {
		if !tensor.SameShape(t, ts[i]) {
			return fmt.Errorf("train: Adam moment %d shape %v, want %v", i, ts[i].Shape(), t.Shape())
		}
	}
	for i, t := range dst {
		t.CopyFrom(ts[i])
	}
	a.step = step
	return nil
}

// ClipGradNorm rescales gradients so their global L2 norm is at most
// maxNorm. Returns the pre-clip norm.
func ClipGradNorm(params []*autograd.Variable, maxNorm float32) float32 {
	var sq float64
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		for _, g := range p.Grad.Data {
			sq += float64(g) * float64(g)
		}
	}
	norm := float32(math.Sqrt(sq))
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			if p.Grad != nil {
				tensor.ScaleInPlace(p.Grad, scale)
			}
		}
	}
	return norm
}
