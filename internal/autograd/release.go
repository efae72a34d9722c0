package autograd

import (
	"sync"

	"pac/internal/tensor"
)

// Graph teardown. After the caller has read everything it needs from a
// finished computation (the loss scalar, the logits, boundary
// activations), Release walks the graph and returns every interior
// tensor — values, gradients, op-owned auxiliaries — to the tensor pool,
// and recycles the interior nodes themselves. This is what makes
// steady-state training allocation-free: the next step's graph is built
// entirely from the buffers the previous step released.
//
// Safety rules, encoded below:
//
//   - Leaves (parameters, inputs) are never touched: their values and
//     accumulated gradients outlive the graph (the optimizer reads and
//     zeroes parameter gradients across steps).
//   - Root values are kept (the caller is holding them); root gradients
//     are freed.
//   - Buffers are freed at most once even when several nodes alias the
//     same storage (Reshape views, in-place ops), and never when any
//     leaf, root, or explicitly kept tensor shares that storage.
//   - Foreign (non-pooled) buffers are skipped automatically: Put
//     rejects them.

// releaseState is the reusable scratch for one sweep.
type releaseState struct {
	nodes     []*Variable
	stack     []*Variable
	rootSet   map[*Variable]struct{}
	keepBuf   map[*float32]struct{}
	seenBuf   map[*float32]struct{}
	seenShell map[*tensor.Tensor]struct{}
}

var relPool = sync.Pool{New: func() any {
	return &releaseState{
		rootSet:   make(map[*Variable]struct{}),
		keepBuf:   make(map[*float32]struct{}),
		seenBuf:   make(map[*float32]struct{}),
		seenShell: make(map[*tensor.Tensor]struct{}),
	}
}}

// Release frees every interior tensor and node of the graphs rooted at
// roots, keeping root values and all leaves intact. Call it once per
// graph, after Backward (if any) and after reading the outputs.
func Release(roots ...*Variable) { ReleaseExcept(nil, roots...) }

// ReleaseExcept is Release with an explicit keep list: tensors in keep
// survive the sweep even if they sit on interior nodes. The PAC forward
// pass uses it to tear down the frozen backbone's evaluation graph while
// keeping the tap activations the side network feeds on.
func ReleaseExcept(keep []*tensor.Tensor, roots ...*Variable) {
	rs := relPool.Get().(*releaseState)
	gen := visitGen.Add(1)

	for _, t := range keep {
		if t == nil || len(t.Data) == 0 {
			continue
		}
		rs.keepBuf[&t.Data[0]] = struct{}{}
		rs.seenShell[t] = struct{}{} // keep the header too
	}

	// Phase 1: collect every reachable node (through ALL parents, not
	// just gradient-tracking ones — eval graphs must be freed too) and
	// build the keep set from leaves and roots.
	for _, r := range roots {
		if r == nil || r.visited.Load() == gen {
			continue
		}
		r.visited.Store(gen)
		rs.rootSet[r] = struct{}{}
		rs.stack = append(rs.stack, r)
		rs.nodes = append(rs.nodes, r)
	}
	for len(rs.stack) > 0 {
		n := rs.stack[len(rs.stack)-1]
		rs.stack = rs.stack[:len(rs.stack)-1]
		np := n.numParents()
		for i := 0; i < np; i++ {
			p := n.parent(i)
			if p.visited.Load() == gen {
				continue
			}
			p.visited.Store(gen)
			rs.stack = append(rs.stack, p)
			rs.nodes = append(rs.nodes, p)
		}
	}
	for _, n := range rs.nodes {
		if _, isRoot := rs.rootSet[n]; isRoot {
			rs.protect(n.Value)
		}
		if n.numParents() == 0 { // leaf: value and gradient both survive
			rs.protect(n.Value)
			rs.protect(n.Grad)
			continue
		}
		if n.pooled {
			// Settle the tape account for everything this node reserved
			// (newNode value + ensureGrad gradient) — per node, not per
			// buffer, so aliased views balance against their own reserves.
			// Roots are settled here too: their value survives for the
			// caller, but the tape no longer owns it, and the cleared
			// parent list keeps a second sweep from re-releasing. This
			// happens before anything is freed: an in-place op's node
			// shares its parent's tensor header, and once phase 2 recycles
			// that header through one of them it reads as empty — or is
			// already being rewritten by another goroutine's tensor.New.
			memTape.Release(tapeBytes(n.Value) + tapeBytes(n.Grad))
		}
	}

	// Phase 2: free interiors and recycle nodes.
	for i, n := range rs.nodes {
		rs.nodes[i] = nil
		_, isRoot := rs.rootSet[n]
		if n.numParents() == 0 {
			continue
		}
		if !isRoot {
			rs.free(n.Value)
		}
		rs.free(n.Grad)
		rs.free(n.auxT)
		rs.free(n.auxT2)
		if n.auxMean != nil {
			tensor.Put(n.auxMean)
		}
		if n.auxInv != nil {
			tensor.Put(n.auxInv)
		}
		if isRoot {
			// Leave the root holding its value but detach it from the
			// (now freed) graph.
			n.Grad = nil
			n.backFn = nil
			n.parents = [maxInlineParents]*Variable{}
			n.nparents = 0
			for j := range n.extra {
				n.extra[j] = nil
			}
			n.extra = n.extra[:0]
			n.auxT, n.auxT2 = nil, nil
			n.auxIs, n.auxMean, n.auxInv = nil, nil, nil
			continue
		}
		if n.pooled {
			n.reset()
			varPool.Put(n)
		}
	}

	rs.nodes = rs.nodes[:0]
	rs.stack = rs.stack[:0]
	clear(rs.rootSet)
	clear(rs.keepBuf)
	clear(rs.seenBuf)
	clear(rs.seenShell)
	relPool.Put(rs)
}

// protect marks t's buffer and header as off-limits for this sweep.
func (rs *releaseState) protect(t *tensor.Tensor) {
	if t == nil {
		return
	}
	if len(t.Data) > 0 {
		rs.keepBuf[&t.Data[0]] = struct{}{}
	}
	rs.seenShell[t] = struct{}{}
}

// free returns t's buffer and header to the pool — once per distinct
// buffer and header, skipping kept ones. Tensors with foreign
// (non-pooled) buffers are left completely untouched: they may be
// caller-owned (FromSlice wrappers), so neither their data nor their
// header may be recycled.
func (rs *releaseState) free(t *tensor.Tensor) {
	if t == nil {
		return
	}
	// A header this sweep has already recycled is no longer ours to
	// read, so it is recognised by address before its Data is touched.
	if _, seen := rs.seenShell[t]; seen {
		return
	}
	if len(t.Data) == 0 {
		return
	}
	p := &t.Data[0]
	if _, kept := rs.keepBuf[p]; kept {
		return
	}
	rs.seenShell[t] = struct{}{}
	if _, dup := rs.seenBuf[p]; dup {
		// The buffer went back through an aliased view (Reshape,
		// in-place op); this header is graph-owned, recycle it alone.
		tensor.PutShell(t)
		return
	}
	if tensor.Put(t.Data) {
		rs.seenBuf[p] = struct{}{}
		tensor.PutShell(t)
	}
}
