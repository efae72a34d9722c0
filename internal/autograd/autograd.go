// Package autograd implements reverse-mode automatic differentiation over
// the tensor package. Operations build an implicit computation graph;
// Backward walks it in reverse topological order accumulating gradients.
//
// Gradient tracking is lazy: an operation only records a backward function
// when at least one input requires gradients, so running a frozen model
// (e.g. the PAC backbone) costs no tape memory — exactly the property the
// Parallel Adapters technique exploits.
//
// The tape is allocation-free in steady state: nodes are flat structs
// recycled through a pool (Release returns a finished graph's nodes and
// tensors), backward passes are static functions reading their operands
// from the node rather than closures, and every intermediate tensor comes
// from the tensor package's size-class pool.
package autograd

import (
	"sync"
	"sync/atomic"

	"pac/internal/memledger"
	"pac/internal/tensor"
)

// memTape accounts bytes retained by live computation graphs: interior
// node values at newNode, their gradients at first ensureGrad, both
// settled when Release recycles the node. Leaves (parameters, inputs)
// are caller-owned and never counted. The account overlaps pool.inuse
// by design — it answers "how much of the checked-out memory is the
// tape", not "how much RAM total".
var memTape = memledger.Default().Account("autograd.tape")

// tapeBytes is the float32 payload size of t (0 for nil).
func tapeBytes(t *tensor.Tensor) int64 {
	if t == nil {
		return 0
	}
	return int64(t.Numel()) * 4
}

// maxInlineParents bounds the parents stored inline in a node; ops with
// more (Concat, BackwardMulti roots) spill into the extra slice.
const maxInlineParents = 3

// Variable is a node in the computation graph: a value, an optional
// gradient, its parents, and the static backward function that
// propagates its gradient to them. Op payload fields (auxT, auxF, …)
// carry whatever the backward function needs, keeping it a plain
// function instead of an allocating closure.
type Variable struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor

	requiresGrad bool
	pooled       bool // from varPool; Release may recycle it
	gradClean    bool // Grad holds ZeroGrad's zeros: accPut may replace it
	nparents     uint8
	visited      atomic.Uint64 // traversal generation mark
	parents      [maxInlineParents]*Variable
	extra        []*Variable // overflow parents
	backFn       func(out *Variable)

	// Op payload:
	auxT    *tensor.Tensor // op-owned tensor (pre-activation, mask, …)
	auxT2   *tensor.Tensor
	auxF    float32
	auxI    int
	auxI2   int
	auxIs   []int
	auxMean []float32 // layer-norm row stats (pooled)
	auxInv  []float32
}

var varPool = sync.Pool{New: func() any { return &Variable{} }}

// NewVar wraps a tensor as a graph leaf that does not require gradients
// (an input or a frozen parameter). Leaves are never recycled by
// Release, so holding onto them (parameters!) is always safe.
func NewVar(t *tensor.Tensor) *Variable { return &Variable{Value: t} }

// NewParam wraps a tensor as a trainable leaf that accumulates gradients.
func NewParam(t *tensor.Tensor) *Variable {
	return &Variable{Value: t, requiresGrad: true}
}

// RequiresGrad reports whether gradients flow to this variable.
func (v *Variable) RequiresGrad() bool { return v.requiresGrad }

// SetRequiresGrad toggles gradient tracking for a leaf. Calling it on a
// non-leaf panics: interior nodes derive the flag from their parents.
func (v *Variable) SetRequiresGrad(on bool) {
	if v.backFn != nil {
		panic("autograd: SetRequiresGrad on non-leaf variable")
	}
	v.requiresGrad = on
}

// ZeroGrad clears the accumulated gradient and marks the buffer clean:
// the next backward pass's first gradient for v takes its place (the
// zeroed buffer goes back to the pool) instead of being added into it.
// A caller that writes Grad.Data itself (a gradient all-reduce) does so
// after the backward pass and before the optimizer step, never between
// ZeroGrad and the next backward.
func (v *Variable) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
		v.gradClean = true
	}
}

// ensureGrad allocates the gradient buffer (pooled) on first use.
func (v *Variable) ensureGrad() *tensor.Tensor {
	v.gradClean = false
	if v.Grad == nil {
		v.Grad = tensor.New(v.Value.Shape()...)
		if v.pooled {
			// Interior gradients belong to the tape until Release; leaf
			// gradients outlive the graph (the optimizer owns them).
			memTape.Add(tapeBytes(v.Grad))
		}
	}
	return v.Grad
}

// accumulate adds g into v's gradient buffer (shape-checked).
func (v *Variable) accumulate(g *tensor.Tensor) {
	tensor.AddInPlace(v.ensureGrad(), g)
}

// accFlat adds g into v's gradient buffer, matching element counts only
// — gradients of matrix products arrive [rows, cols]-viewed while the
// grad buffer keeps the operand's original (possibly 3-D) shape.
func (v *Variable) accFlat(g *tensor.Tensor) {
	tensor.AddFlat(v.ensureGrad(), g)
}

// accPut adds the temporary g, which the caller hands over, into v's
// gradient — the backward-pass idiom replacing accumulate(freshTensor).
// A variable with no gradient yet, or only ZeroGrad's zeros, adopts g
// as its gradient, re-viewed in v's shape: 0 + g is g up to the sign
// of a zero, so neither a zeroed buffer nor the add is paid for, and
// the clean buffer goes back to the pool. Otherwise g is added and
// returned to the pool.
func (v *Variable) accPut(g *tensor.Tensor) {
	if v.Grad != nil && !v.gradClean {
		tensor.AddFlat(v.Grad, g)
		tensor.PutTensor(g)
		return
	}
	g.SetShape(v.Value.Shape()...)
	if old := v.Grad; old != nil {
		tensor.PutTensor(old)
	} else if v.pooled {
		memTape.Add(tapeBytes(g))
	}
	v.Grad, v.gradClean = g, false
}

// numParents returns the parent count.
func (v *Variable) numParents() int { return int(v.nparents) + len(v.extra) }

// parent returns parent i.
func (v *Variable) parent(i int) *Variable {
	if i < maxInlineParents {
		return v.parents[i]
	}
	return v.extra[i-maxInlineParents]
}

// addParent appends a parent, spilling past the inline array.
func (v *Variable) addParent(p *Variable) {
	if int(v.nparents) < maxInlineParents {
		v.parents[v.nparents] = p
		v.nparents++
		return
	}
	v.extra = append(v.extra, p)
}

// newNode takes a recycled node from the pool and claims val as its
// value.
func newNode(val *tensor.Tensor) *Variable {
	v := varPool.Get().(*Variable)
	v.Value = val
	v.pooled = true
	memTape.Reserve(tapeBytes(val))
	return v
}

// reset clears every field so a recycled node carries nothing over. The
// visited generation is deliberately kept: generations never repeat.
func (v *Variable) reset() {
	v.Value, v.Grad = nil, nil
	v.requiresGrad, v.pooled, v.gradClean = false, false, false
	v.nparents = 0
	v.parents = [maxInlineParents]*Variable{}
	for i := range v.extra {
		v.extra[i] = nil
	}
	v.extra = v.extra[:0]
	v.backFn = nil
	v.auxT, v.auxT2 = nil, nil
	v.auxF, v.auxI, v.auxI2 = 0, 0, 0
	v.auxIs = nil
	v.auxMean, v.auxInv = nil, nil
}

// finish wires the backward function if any parent tracks gradients
// (parents must already be attached).
func (v *Variable) finish(backFn func(*Variable)) *Variable {
	n := v.numParents()
	for i := 0; i < n; i++ {
		if v.parent(i).requiresGrad {
			v.requiresGrad = true
			break
		}
	}
	if v.requiresGrad {
		v.backFn = backFn
	}
	return v
}

func newOp1(val *tensor.Tensor, backFn func(*Variable), a *Variable) *Variable {
	out := newNode(val)
	out.parents[0] = a
	out.nparents = 1
	return out.finish(backFn)
}

func newOp2(val *tensor.Tensor, backFn func(*Variable), a, b *Variable) *Variable {
	out := newNode(val)
	out.parents[0], out.parents[1] = a, b
	out.nparents = 2
	return out.finish(backFn)
}

func newOp3(val *tensor.Tensor, backFn func(*Variable), a, b, c *Variable) *Variable {
	out := newNode(val)
	out.parents[0], out.parents[1], out.parents[2] = a, b, c
	out.nparents = 3
	return out.finish(backFn)
}

func newOpN(val *tensor.Tensor, backFn func(*Variable), ps []*Variable) *Variable {
	out := newNode(val)
	for _, p := range ps {
		out.addParent(p)
	}
	return out.finish(backFn)
}

// visitGen issues globally unique traversal generations; marking nodes
// with the current generation replaces a per-traversal visited map.
// Marks are atomic because concurrent traversals of disjoint graphs may
// share leaf nodes (several serve requests walk graphs rooted in the
// same parameters).
var visitGen atomic.Uint64

// frame is one step of the iterative DFS.
type frame struct {
	node *Variable
	next int
}

// traversal holds reusable DFS state.
type traversal struct {
	order []*Variable
	stack []frame
}

var travPool = sync.Pool{New: func() any { return &traversal{} }}

// topo fills t.order with nodes reachable from root through
// gradient-tracking parents, parents before children. Iterative DFS
// keeps deep graphs (24-layer transformers unroll to thousands of
// nodes) off the Go stack.
func (t *traversal) topo(root *Variable, gen uint64) {
	t.order = t.order[:0]
	t.stack = append(t.stack[:0], frame{root, 0})
	root.visited.Store(gen)
	for len(t.stack) > 0 {
		f := &t.stack[len(t.stack)-1]
		if f.next < f.node.numParents() {
			p := f.node.parent(f.next)
			f.next++
			if p.requiresGrad && p.visited.Load() != gen {
				p.visited.Store(gen)
				t.stack = append(t.stack, frame{p, 0})
			}
			continue
		}
		t.order = append(t.order, f.node)
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// Backward runs reverse-mode differentiation from v, which must be a
// scalar (Numel == 1) unless seed is provided. Gradients accumulate into
// every reachable leaf with requiresGrad.
func Backward(v *Variable) {
	if v.Value.Numel() != 1 {
		panic("autograd: Backward on non-scalar without explicit seed; use BackwardWithSeed")
	}
	seed := tensor.GetTensor(v.Value.Shape()...)
	seed.Fill(1)
	BackwardWithSeed(v, seed)
	tensor.PutTensor(seed)
}

// BackwardWithSeed runs backward from v with an explicit upstream
// gradient (same shape as v.Value). The seed remains owned by the
// caller.
func BackwardWithSeed(v *Variable, seed *tensor.Tensor) {
	if !tensor.SameShape(v.Value, seed) {
		panic("autograd: seed shape mismatch")
	}
	tr := travPool.Get().(*traversal)
	tr.topo(v, visitGen.Add(1))
	v.accumulate(seed)
	runBackward(tr.order)
	travPool.Put(tr)
}

func runBackward(order []*Variable) {
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backFn != nil && n.Grad != nil {
			n.backFn(n)
		}
	}
}

// GraphSize returns the number of gradient-tracking nodes reachable from
// v. Tests use it to assert that frozen backbones contribute nothing to
// the tape.
func GraphSize(v *Variable) int {
	tr := travPool.Get().(*traversal)
	tr.topo(v, visitGen.Add(1))
	n := len(tr.order)
	travPool.Put(tr)
	return n
}

// BackwardMulti runs one reverse pass from several output roots at once,
// seeding each with the matching gradient, so an interior they share is
// traversed exactly once. A root that tracks no gradient is skipped:
// pipeline stages seed their side output with it, and a tap-free first
// stage's side output is its constant zero state.
func BackwardMulti(outs []*Variable, seeds []*tensor.Tensor) {
	if len(outs) != len(seeds) {
		panic("autograd: BackwardMulti length mismatch")
	}
	root := &Variable{requiresGrad: true}
	for i, o := range outs {
		if o == nil || seeds[i] == nil {
			continue
		}
		if !tensor.SameShape(o.Value, seeds[i]) {
			panic("autograd: BackwardMulti seed shape mismatch")
		}
		root.addParent(o)
	}
	tr := travPool.Get().(*traversal)
	tr.topo(root, visitGen.Add(1))
	for i, o := range outs {
		if o == nil || seeds[i] == nil {
			continue
		}
		if o.requiresGrad {
			o.accumulate(seeds[i])
		}
	}
	runBackward(tr.order)
	travPool.Put(tr)
}
