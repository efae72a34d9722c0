// Package nn provides neural-network building blocks (linear layers,
// layer norm, embeddings, multi-head attention, feed-forward blocks) on
// top of the autograd engine, plus the parameter-registry plumbing the
// distributed trainers use to enumerate, freeze, and synchronize weights.
package nn

import (
	"pac/internal/autograd"
	"pac/internal/tensor"
)

// Module is anything holding trainable parameters.
type Module interface {
	// Params returns the module's parameters in a deterministic order.
	// Distributed gradient synchronization relies on every replica
	// enumerating parameters identically.
	Params() []*autograd.Variable
}

// Freeze disables gradient tracking for every parameter of m.
func Freeze(m Module) {
	for _, p := range m.Params() {
		p.SetRequiresGrad(false)
	}
}

// TrainableParams filters m's parameters to those requiring gradients.
func TrainableParams(m Module) []*autograd.Variable {
	var out []*autograd.Variable
	for _, p := range m.Params() {
		if p.RequiresGrad() {
			out = append(out, p)
		}
	}
	return out
}

// CopyParams copies parameter values from src to dst, which must have
// identical architectures (same parameter count and shapes).
func CopyParams(dst, src Module) {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		panic("nn: CopyParams module mismatch")
	}
	for i := range dp {
		dp[i].Value.CopyFrom(sp[i].Value)
	}
}

// FlattenParams serializes the values of params into one vector; the
// collective-communication layer ships parameters and gradients as flat
// float32 slices.
func FlattenParams(params []*autograd.Variable) []float32 {
	n := 0
	for _, p := range params {
		n += p.Value.Numel()
	}
	out := make([]float32, 0, n)
	for _, p := range params {
		out = append(out, p.Value.Data...)
	}
	return out
}

// UnflattenParams writes a flat vector back into params' values.
func UnflattenParams(params []*autograd.Variable, flat []float32) {
	off := 0
	for _, p := range params {
		n := p.Value.Numel()
		copy(p.Value.Data, flat[off:off+n])
		off += n
	}
	if off != len(flat) {
		panic("nn: UnflattenParams length mismatch")
	}
}

// FlattenGrads serializes gradients into dst, which holds exactly
// their element count (zeros for params that never received one).
func FlattenGrads(dst []float32, params []*autograd.Variable) {
	off := 0
	for _, p := range params {
		n := p.Value.Numel()
		if p.Grad != nil {
			copy(dst[off:off+n], p.Grad.Data)
		} else {
			clear(dst[off : off+n])
		}
		off += n
	}
	if off != len(dst) {
		panic("nn: FlattenGrads length mismatch")
	}
}

// UnflattenGrads writes a flat gradient vector back into params.
func UnflattenGrads(params []*autograd.Variable, flat []float32) {
	off := 0
	for _, p := range params {
		n := p.Value.Numel()
		if p.Grad == nil {
			p.Grad = tensor.New(p.Value.Shape()...)
		}
		copy(p.Grad.Data, flat[off:off+n])
		off += n
	}
	if off != len(flat) {
		panic("nn: UnflattenGrads length mismatch")
	}
}
