package autograd

import (
	"math"

	"pac/internal/tensor"
)

// Every op follows the same pattern: compute the value with a tensor
// kernel, attach a *static* backward function (no closures — operands
// are read back from the node), and free backward temporaries through
// accPut as soon as they are consumed. Gradient arithmetic matches the
// original composed implementations bit for bit: a variable's first
// temporary becomes its gradient (0 + t is t, up to the sign of a
// zero), later ones add into it in the same order, and fused forward
// kernels preserve per-element operation order.

// Add returns a + b (elementwise, same shapes).
func Add(a, b *Variable) *Variable {
	return newOp2(tensor.Add(a.Value, b.Value), backAdd, a, b)
}

func backAdd(out *Variable) {
	a, b := out.parents[0], out.parents[1]
	if a.requiresGrad {
		a.accumulate(out.Grad)
	}
	if b.requiresGrad {
		b.accumulate(out.Grad)
	}
}

// Mul returns the elementwise product a * b.
func Mul(a, b *Variable) *Variable {
	return newOp2(tensor.Mul(a.Value, b.Value), backMul, a, b)
}

func backMul(out *Variable) {
	a, b := out.parents[0], out.parents[1]
	if a.requiresGrad {
		a.accPut(tensor.Mul(out.Grad, b.Value))
	}
	if b.requiresGrad {
		b.accPut(tensor.Mul(out.Grad, a.Value))
	}
}

// Scale returns s * a for a compile-time constant s.
func Scale(a *Variable, s float32) *Variable {
	out := newOp1(tensor.Scale(a.Value, s), backScale, a)
	out.auxF = s
	return out
}

func backScale(out *Variable) {
	out.parents[0].accPut(tensor.Scale(out.Grad, out.auxF))
}

// AddBias returns m + bias where bias (a vector matching m's last
// dimension) broadcasts across rows.
func AddBias(m, bias *Variable) *Variable {
	return newOp2(tensor.AddRowBroadcast(m.Value, bias.Value), backAddBias, m, bias)
}

func backAddBias(out *Variable) {
	m, bias := out.parents[0], out.parents[1]
	if m.requiresGrad {
		m.accumulate(out.Grad)
	}
	if bias.requiresGrad {
		bias.accPut(tensor.SumRows(out.Grad))
	}
}

// MatMul returns a·b treating inputs as 2-D matrices [rows, lastDim].
// The output shape is [a.rows, b.cols].
func MatMul(a, b *Variable) *Variable {
	return newOp2(tensor.MatMul(a.Value, b.Value), backMatMul, a, b)
}

func backMatMul(out *Variable) {
	a, b := out.parents[0], out.parents[1]
	if a.requiresGrad {
		a.accPut(tensor.MatMulT(out.Grad, b.Value))
	}
	if b.requiresGrad {
		b.accPut(tensor.TMatMul(a.Value, out.Grad))
	}
}

// Affine returns x·w + b with the output keeping x's leading dimensions
// (last dimension becomes w's column count). bias may be nil for a pure
// projection. This is the fused Linear/projection hot path: one node
// and one output buffer instead of a MatMul/AddBias/Reshape chain.
func Affine(x, w, bias *Variable) *Variable {
	val := tensor.MatMul(x.Value, w.Value)
	if bias != nil {
		tensor.AddRowBroadcastInPlace(val, bias.Value)
	}
	reshapeLeading(val, x.Value, w.Value.Dim(1))
	if bias == nil {
		return newOp2(val, backAffine, x, w)
	}
	return newOp3(val, backAffine, x, w, bias)
}

func backAffine(out *Variable) {
	x, w := out.parents[0], out.parents[1]
	if x.requiresGrad {
		x.accPut(tensor.MatMulT(out.Grad, w.Value))
	}
	if w.requiresGrad {
		w.accPut(tensor.TMatMul(x.Value, out.Grad))
	}
	if out.nparents == 3 {
		if bias := out.parents[2]; bias.requiresGrad {
			bias.accPut(tensor.SumRows(out.Grad))
		}
	}
}

// AffineQuantized returns x·W + b where W is the int8 form of a frozen
// projection weight (the quantized backbone hot path). It is only valid
// when neither x nor the weight tracks gradients — the caller gates on
// that — so the node never runs backward; it still records x as a
// parent to keep the eval graph connected for ReleaseExcept teardown.
// bias stays fp32 and may be nil.
func AffineQuantized(x *Variable, q *tensor.QuantizedWeight, bias *Variable) *Variable {
	val := tensor.QuantMatMul(x.Value, q)
	if bias != nil {
		tensor.AddRowBroadcastInPlace(val, bias.Value)
	}
	reshapeLeading(val, x.Value, q.Out)
	if bias == nil {
		return newOp1(val, backAffineQuantized, x)
	}
	return newOp2(val, backAffineQuantized, x, bias)
}

// AffineGELUQuantized returns gelu(x·W + b) through the int8 path (the
// frozen FeedForward up-projection). With no backward pass there is no
// pre-activation to keep: the activation applies in place on the single
// output buffer.
func AffineGELUQuantized(x *Variable, q *tensor.QuantizedWeight, bias *Variable) *Variable {
	val := tensor.QuantMatMul(x.Value, q)
	if bias != nil {
		tensor.AddRowBroadcastInPlace(val, bias.Value)
	}
	tensor.GELUInto(val, val)
	reshapeLeading(val, x.Value, q.Out)
	if bias == nil {
		return newOp1(val, backAffineQuantized, x)
	}
	return newOp2(val, backAffineQuantized, x, bias)
}

func backAffineQuantized(out *Variable) {
	// Unreachable when the gating holds (no parent requires grad ⇒ the
	// node never enters the backward walk); a loud failure beats a
	// silent zero gradient if a caller ever quantizes a trainable path.
	panic("autograd: backward through AffineQuantized — quantized weights are frozen-only")
}

// reshapeLeading re-views t ([rows, cols]) in place so it keeps x's
// leading dimensions with cols as the last dimension — the output-shape
// rule shared by the fused affine ops.
func reshapeLeading(t, x *tensor.Tensor, cols int) {
	shape := x.Shape()
	if len(shape) <= 2 {
		return
	}
	if len(shape) == 3 {
		t.SetShape(shape[0], shape[1], cols)
		return
	}
	outShape := append(append([]int(nil), shape[:len(shape)-1]...), cols)
	t.SetShape(outShape...)
}

// AffineGELU returns gelu(x·w + b) in one node, capturing the
// pre-activation for the backward pass (fused FeedForward up-projection
// and adapter bottleneck). bias may be nil.
func AffineGELU(x, w, bias *Variable) *Variable {
	pre := tensor.MatMul(x.Value, w.Value)
	if bias != nil {
		tensor.AddRowBroadcastInPlace(pre, bias.Value)
	}
	reshapeLeading(pre, x.Value, w.Value.Dim(1))
	val := tensor.New(pre.Shape()...)
	tensor.GELUInto(val, pre)
	var out *Variable
	if bias == nil {
		out = newOp2(val, backAffineGELU, x, w)
	} else {
		out = newOp3(val, backAffineGELU, x, w, bias)
	}
	out.auxT = pre
	return out
}

func backAffineGELU(out *Variable) {
	x, w := out.parents[0], out.parents[1]
	pre := out.auxT
	dpre := tensor.New(pre.Shape()...)
	tensor.GELUGradInto(dpre, pre, out.Grad)
	if x.requiresGrad {
		x.accPut(tensor.MatMulT(dpre, w.Value))
	}
	if w.requiresGrad {
		w.accPut(tensor.TMatMul(x.Value, dpre))
	}
	if out.nparents == 3 {
		if bias := out.parents[2]; bias.requiresGrad {
			bias.accPut(tensor.SumRows(dpre))
		}
	}
	tensor.PutTensor(dpre)
	tensor.PutTensor(out.auxT)
	out.auxT = nil
}

// AddGELU returns gelu(a + b) in one node (the Parallel Adapters side
// step: tap projection + recurrent mix, activated). The sum is captured
// as the pre-activation for backward.
func AddGELU(a, b *Variable) *Variable {
	pre := tensor.Add(a.Value, b.Value)
	val := tensor.New(pre.Shape()...)
	tensor.GELUInto(val, pre)
	out := newOp2(val, backAddGELU, a, b)
	out.auxT = pre
	return out
}

// backAddGELU overwrites the pre-activation with its gradient: each
// element of pre is read once, before its gradient lands in its place,
// and nothing reads pre after this.
func backAddGELU(out *Variable) {
	a, b := out.parents[0], out.parents[1]
	dpre := out.auxT
	tensor.GELUGradInto(dpre, dpre, out.Grad)
	if a.requiresGrad {
		a.accFlat(dpre)
	}
	if b.requiresGrad {
		b.accFlat(dpre)
	}
	tensor.PutTensor(dpre)
	out.auxT = nil
}

// BatchMatMul returns per-batch a[b]·b[b] for 3-D inputs.
func BatchMatMul(a, b *Variable) *Variable {
	return newOp2(tensor.BatchMatMul(a.Value, b.Value), backBatchMatMul, a, b)
}

func backBatchMatMul(out *Variable) {
	a, b := out.parents[0], out.parents[1]
	if a.requiresGrad {
		// dA = dOut·Bᵀ: BatchMatMulT contracts the last dims of
		// dOut [batch,m,n] and B [batch,k,n], yielding [batch,m,k].
		a.accPut(tensor.BatchMatMulT(out.Grad, b.Value))
	}
	if b.requiresGrad {
		// dB = Aᵀ·dOut ([batch,k,m]·[batch,m,n] → [batch,k,n]).
		b.accPut(tensor.BatchTMatMul(a.Value, out.Grad))
	}
}

// BatchMatMulT returns per-batch a[b]·b[b]ᵀ (attention scores Q·Kᵀ).
func BatchMatMulT(a, b *Variable) *Variable {
	return newOp2(tensor.BatchMatMulT(a.Value, b.Value), backBatchMatMulT, a, b)
}

func backBatchMatMulT(out *Variable) {
	a, b := out.parents[0], out.parents[1]
	if a.requiresGrad {
		// dA = dOut · B   ([batch,m,n]·[batch,n,k])
		a.accPut(tensor.BatchMatMul(out.Grad, b.Value))
	}
	if b.requiresGrad {
		// dB = dOutᵀ · A  ([batch,n,m]·[batch,m,k])
		b.accPut(tensor.BatchTMatMul(out.Grad, a.Value))
	}
}

// BatchMatMulTScaled returns per-batch alpha·a[b]·b[b]ᵀ — the fused
// attention-score op (Q·Kᵀ/√dh in a single kernel pass, one node
// instead of a BatchMatMulT/Scale chain).
func BatchMatMulTScaled(a, b *Variable, alpha float32) *Variable {
	out := newOp2(tensor.BatchMatMulTScaled(a.Value, b.Value, alpha), backBatchMatMulTScaled, a, b)
	out.auxF = alpha
	return out
}

func backBatchMatMulTScaled(out *Variable) {
	a, b := out.parents[0], out.parents[1]
	// Scale once, exactly like the Scale node the fusion replaced, so
	// gradients stay bit-identical to the composed chain.
	gs := tensor.Scale(out.Grad, out.auxF)
	if a.requiresGrad {
		a.accPut(tensor.BatchMatMul(gs, b.Value))
	}
	if b.requiresGrad {
		b.accPut(tensor.BatchTMatMul(gs, a.Value))
	}
	tensor.PutTensor(gs)
}

// Reshape returns a view of a with a new shape.
func Reshape(a *Variable, shape ...int) *Variable {
	return newOp1(a.Value.Reshape(shape...), backReshape, a)
}

func backReshape(out *Variable) {
	out.parents[0].accFlat(out.Grad)
}

// SplitHeads rearranges [batch, seq, heads*dh] → [batch*heads, seq, dh].
func SplitHeads(a *Variable, heads int) *Variable {
	out := newOp1(tensor.SplitHeads(a.Value, heads), backSplitHeads, a)
	out.auxI = heads
	return out
}

func backSplitHeads(out *Variable) {
	out.parents[0].accPut(tensor.MergeHeads(out.Grad, out.auxI))
}

// MergeHeads rearranges [batch*heads, seq, dh] → [batch, seq, heads*dh].
func MergeHeads(a *Variable, heads int) *Variable {
	out := newOp1(tensor.MergeHeads(a.Value, heads), backMergeHeads, a)
	out.auxI = heads
	return out
}

func backMergeHeads(out *Variable) {
	out.parents[0].accPut(tensor.SplitHeads(out.Grad, out.auxI))
}

// GELU applies the tanh-approximated Gaussian error linear unit.
func GELU(a *Variable) *Variable {
	val := tensor.New(a.Value.Shape()...)
	tensor.GELUInto(val, a.Value)
	return newOp1(val, backGELU, a)
}

func backGELU(out *Variable) {
	a := out.parents[0]
	g := tensor.New(a.Value.Shape()...)
	tensor.GELUGradInto(g, a.Value, out.Grad)
	a.accPut(g)
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(a *Variable) *Variable {
	val := tensor.Apply(a.Value, func(v float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(v))))
	})
	return newOp1(val, backSigmoid, a)
}

func backSigmoid(out *Variable) {
	a := out.parents[0]
	g := tensor.New(a.Value.Shape()...)
	for i := range g.Data {
		y := float64(out.Value.Data[i])
		g.Data[i] = out.Grad.Data[i] * float32(y*(1-y))
	}
	a.accPut(g)
}

// Softmax applies a row-wise softmax over the last dimension.
func Softmax(a *Variable) *Variable {
	return newOp1(tensor.Softmax(a.Value), backSoftmax, a)
}

// SoftmaxInPlace overwrites a's value with its row-wise softmax and
// returns a node sharing that storage. Valid when no other op needs a's
// raw value (attention scores feed only the softmax); saves one
// [batch·heads, seq, seq] buffer per attention block.
func SoftmaxInPlace(a *Variable) *Variable {
	tensor.SoftmaxInPlace(a.Value)
	return newOp1(a.Value, backSoftmax, a)
}

func backSoftmax(out *Variable) {
	a := out.parents[0]
	val := out.Value
	rows, cols := tensor.Rows(val)
	g := tensor.New(val.Shape()...)
	for r := 0; r < rows; r++ {
		base := r * cols
		var dot float64
		for c := 0; c < cols; c++ {
			dot += float64(out.Grad.Data[base+c]) * float64(val.Data[base+c])
		}
		for c := 0; c < cols; c++ {
			g.Data[base+c] = val.Data[base+c] * (out.Grad.Data[base+c] - float32(dot))
		}
	}
	a.accPut(g)
}

// AddConstInPlace adds a constant tensor (no gradient flows to it) into
// a's value in place and returns a node sharing that storage (the
// additive attention-mask path — valid because score values are only
// consumed by the softmax). The graph owns c afterwards: Release frees
// it with the rest of the graph, so pass a fresh (or cloned) tensor.
func AddConstInPlace(a *Variable, c *tensor.Tensor) *Variable {
	tensor.AddInPlace(a.Value, c)
	out := newOp1(a.Value, backPassThrough, a)
	out.auxT = c
	return out
}

func backPassThrough(out *Variable) {
	out.parents[0].accFlat(out.Grad)
}

// LayerNorm normalizes rows of a over the last dimension and applies the
// affine transform gamma*x + beta.
func LayerNorm(a, gamma, beta *Variable, eps float32) *Variable {
	rows := a.Value.Numel() / a.Value.Dim(a.Value.Dims()-1)
	stats := tensor.LayerNormStats{Mean: tensor.Get(rows), InvStd: tensor.Get(rows)}
	val := tensor.LayerNormForwardStats(a.Value, gamma.Value, beta.Value, eps, &stats)
	out := newOp3(val, backLayerNorm, a, gamma, beta)
	out.auxMean, out.auxInv = stats.Mean, stats.InvStd
	return out
}

func backLayerNorm(out *Variable) {
	a, gamma, beta := out.parents[0], out.parents[1], out.parents[2]
	stats := tensor.LayerNormStats{Mean: out.auxMean, InvStd: out.auxInv}
	cols := a.Value.Dim(a.Value.Dims() - 1)
	// A frozen input (the side network's backbone tap) takes no
	// gradient, so no dx is computed for it.
	var dx *tensor.Tensor
	if a.requiresGrad {
		dx = tensor.New(a.Value.Shape()...)
	}
	dGamma := tensor.New(cols)
	dBeta := tensor.New(cols)
	tensor.LayerNormBackwardInto(dx, dGamma, dBeta, a.Value, gamma.Value, out.Grad, &stats)
	if dx != nil {
		a.accPut(dx)
	}
	if gamma.requiresGrad {
		gamma.accPut(dGamma)
	} else {
		tensor.PutTensor(dGamma)
	}
	if beta.requiresGrad {
		beta.accPut(dBeta)
	} else {
		tensor.PutTensor(dBeta)
	}
	tensor.Put(out.auxMean)
	tensor.Put(out.auxInv)
	out.auxMean, out.auxInv = nil, nil
}

// Embedding gathers rows of table (shape [vocab, dim]) for each id in
// ids, producing [len(ids), dim]. The backward pass scatter-adds.
func Embedding(table *Variable, ids []int) *Variable {
	vocab, dim := table.Value.Dim(0), table.Value.Dim(1)
	val := tensor.New(len(ids), dim)
	for i, id := range ids {
		if id < 0 || id >= vocab {
			panic("autograd: embedding id out of range")
		}
		copy(val.Data[i*dim:(i+1)*dim], table.Value.Data[id*dim:(id+1)*dim])
	}
	out := newOp1(val, backEmbedding, table)
	out.auxIs = append([]int(nil), ids...)
	return out
}

func backEmbedding(out *Variable) {
	table := out.parents[0]
	dim := table.Value.Dim(1)
	g := table.ensureGrad()
	for i, id := range out.auxIs {
		row := g.Data[id*dim : (id+1)*dim]
		src := out.Grad.Data[i*dim : (i+1)*dim]
		for j := range row {
			row[j] += src[j]
		}
	}
}

// Concat concatenates along dimension 0.
func Concat(vs ...*Variable) *Variable {
	vals := make([]*tensor.Tensor, len(vs))
	for i, v := range vs {
		vals[i] = v.Value
	}
	return newOpN(tensor.Concat(vals...), backConcat, vs)
}

func backConcat(out *Variable) {
	off := 0
	n := out.numParents()
	for i := 0; i < n; i++ {
		v := out.parent(i)
		rows := v.Value.Dim(0)
		if v.requiresGrad {
			v.accPut(tensor.SliceRows(out.Grad, off, off+rows))
		}
		off += rows
	}
}

// SliceRows takes rows [start, end) along dimension 0.
func SliceRows(a *Variable, start, end int) *Variable {
	out := newOp1(tensor.SliceRows(a.Value, start, end), backSliceRows, a)
	out.auxI, out.auxI2 = start, end
	return out
}

func backSliceRows(out *Variable) {
	a := out.parents[0]
	g := tensor.New(a.Value.Shape()...)
	inner := a.Value.Numel() / a.Value.Dim(0)
	copy(g.Data[out.auxI*inner:out.auxI2*inner], out.Grad.Data)
	a.accPut(g)
}

// Mean reduces to a scalar mean of all elements.
func Mean(a *Variable) *Variable {
	val := tensor.New(1)
	val.Data[0] = tensor.Mean(a.Value)
	return newOp1(val, backMean, a)
}

func backMean(out *Variable) {
	a := out.parents[0]
	n := float32(a.Value.Numel())
	a.accPut(tensor.Full(out.Grad.Data[0]/n, a.Value.Shape()...))
}

// Sum reduces to a scalar sum of all elements.
func Sum(a *Variable) *Variable {
	val := tensor.New(1)
	val.Data[0] = tensor.Sum(a.Value)
	return newOp1(val, backSum, a)
}

func backSum(out *Variable) {
	a := out.parents[0]
	a.accPut(tensor.Full(out.Grad.Data[0], a.Value.Shape()...))
}

// Dropout zeroes each element with probability p during training and
// rescales survivors by 1/(1-p). With train=false it is the identity.
func Dropout(a *Variable, p float32, train bool, rng *tensor.RNG) *Variable {
	if !train || p <= 0 {
		return a
	}
	mask := tensor.New(a.Value.Shape()...)
	scale := 1 / (1 - p)
	for i := range mask.Data {
		if rng.Float32() >= p {
			mask.Data[i] = scale
		}
	}
	out := newOp1(tensor.Mul(a.Value, mask), backDropout, a)
	out.auxT = mask
	return out
}

func backDropout(out *Variable) {
	out.parents[0].accPut(tensor.Mul(out.Grad, out.auxT))
	tensor.PutTensor(out.auxT)
	out.auxT = nil
}

// MeanSeq reduces [batch, seq, d] → [batch, d] by averaging over the
// sequence dimension. The Parallel Adapters side network uses it to pool
// encoder-side state before seeding the decoder-side chain.
func MeanSeq(a *Variable) *Variable {
	return newOp1(tensor.MeanSeq(a.Value), backMeanSeq, a)
}

func backMeanSeq(out *Variable) {
	a := out.parents[0]
	batch, seq, d := a.Value.Dim(0), a.Value.Dim(1), a.Value.Dim(2)
	g := tensor.New(a.Value.Shape()...)
	inv := 1 / float32(seq)
	for b := 0; b < batch; b++ {
		for s := 0; s < seq; s++ {
			base := (b*seq + s) * d
			for c := 0; c < d; c++ {
				g.Data[base+c] = out.Grad.Data[b*d+c] * inv
			}
		}
	}
	a.accPut(g)
}

// BroadcastSeq expands [batch, d] → [batch, seq, d] by repeating each
// row seq times (inverse shape of MeanSeq).
func BroadcastSeq(a *Variable, seq int) *Variable {
	out := newOp1(tensor.BroadcastSeq(a.Value, seq), backBroadcastSeq, a)
	out.auxI = seq
	return out
}

func backBroadcastSeq(out *Variable) {
	a := out.parents[0]
	batch, d := a.Value.Dim(0), a.Value.Dim(1)
	seq := out.auxI
	g := tensor.New(batch, d)
	for b := 0; b < batch; b++ {
		for s := 0; s < seq; s++ {
			base := (b*seq + s) * d
			for c := 0; c < d; c++ {
				g.Data[b*d+c] += out.Grad.Data[base+c]
			}
		}
	}
	a.accPut(g)
}
