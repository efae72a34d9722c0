package nn

import (
	"pac/internal/autograd"
	"pac/internal/tensor"
)

// Linear is a fully connected layer y = x·W + b, with optional LoRA
// low-rank bypass y += scale·(x·A)·B (Hu et al., 2021). The bypass is
// attached by the PEFT layer; when LoraA is nil the layer is a plain
// affine map.
type Linear struct {
	W *autograd.Variable // [in, out]
	B *autograd.Variable // [out]

	LoraA     *autograd.Variable // [in, r], nil when LoRA is not attached
	LoraB     *autograd.Variable // [r, out]
	LoraScale float32

	// QW is the int8 form of a frozen W, built by QuantizeFrozen. The
	// forward pass uses it only while the weight stays frozen, the
	// input carries no gradient, and the active tensor backend is
	// quantized — so trainable math never touches it.
	QW *tensor.QuantizedWeight

	in, out int
}

// AttachLoRA adds a rank-r bypass initialized per the LoRA paper:
// A ~ N(0, 0.02²), B = 0, so the bypass starts as a no-op.
func (l *Linear) AttachLoRA(r int, scale float32, rng *tensor.RNG) {
	l.LoraA = autograd.NewParam(rng.Randn(0.02, l.in, r))
	l.LoraB = autograd.NewParam(tensor.New(r, l.out))
	l.LoraScale = scale
}

// NewLinear returns a Linear layer with Xavier-uniform weights.
func NewLinear(in, out int, rng *tensor.RNG) *Linear {
	return &Linear{
		W:   autograd.NewParam(rng.XavierUniform(in, out, in, out)),
		B:   autograd.NewParam(tensor.New(out)),
		in:  in,
		out: out,
	}
}

// Forward applies the layer. x may have any leading dimensions; the last
// dimension must equal in. The output keeps the leading dimensions.
func (l *Linear) Forward(x *autograd.Variable) *autograd.Variable {
	if l.LoraA == nil {
		if l.usesInt8(x.RequiresGrad()) {
			// Frozen-backbone int8 path: the weight was quantized once
			// at load; the bias and everything downstream stay fp32.
			return autograd.AffineQuantized(x, l.QW, l.B)
		}
		// Fused hot path: one node, one buffer, no reshape views.
		return autograd.Affine(x, l.W, l.B)
	}
	shape := x.Value.Shape()
	y := autograd.AddBias(autograd.MatMul(x, l.W), l.B)
	bypass := autograd.MatMul(autograd.MatMul(x, l.LoraA), l.LoraB)
	y = autograd.Add(y, autograd.Scale(bypass, l.LoraScale))
	if len(shape) > 2 {
		outShape := append(append([]int(nil), shape[:len(shape)-1]...), l.out)
		y = autograd.Reshape(y, outShape...)
	}
	return y
}

// usesInt8 is the gating rule Forward and Value share: the frozen int8
// form serves an input that carries no gradient (xGrad false) on a
// quantized backend.
func (l *Linear) usesInt8(xGrad bool) bool {
	return l.QW != nil && !l.W.RequiresGrad() && !xGrad && tensor.BackendQuantized()
}

// Value is Forward on bare tensors, for inference that records no graph
// (the cached decoder): the same gating and the same kernels, so the
// same bits. A LoRA bypass lives on the tape only, so a layer carrying
// one panics here.
func (l *Linear) Value(x *tensor.Tensor) *tensor.Tensor {
	if l.LoraA != nil {
		panic("nn: Linear.Value with a LoRA bypass attached")
	}
	y := l.project(x, l.usesInt8(false))
	keepLeading(y, x)
	return y
}

// project is x·W + b as [rows, out] through the int8 form or fp32,
// exactly as autograd.AffineQuantized and autograd.Affine compute it.
func (l *Linear) project(x *tensor.Tensor, quantized bool) *tensor.Tensor {
	var y *tensor.Tensor
	if quantized {
		y = tensor.QuantMatMul(x, l.QW)
	} else {
		y = tensor.MatMul(x, l.W.Value)
	}
	tensor.AddRowBroadcastInPlace(y, l.B.Value)
	return y
}

// keepLeading re-views a [rows, cols] result y as [batch, seq, cols]
// when x is [batch, seq, in], as the fused affine ops shape theirs.
func keepLeading(y, x *tensor.Tensor) {
	if s := x.Shape(); len(s) == 3 {
		y.SetShape(s[0], s[1], y.Dim(1))
	}
}

// Params implements Module.
func (l *Linear) Params() []*autograd.Variable {
	out := []*autograd.Variable{l.W, l.B}
	if l.LoraA != nil {
		out = append(out, l.LoraA, l.LoraB)
	}
	return out
}

// QuantizeFrozen builds the int8 form of the weight so quantized
// backends can use it. It refuses (returns false) when the weight is
// trainable or LoRA is attached — quantization is a frozen-backbone
// optimization only.
func (l *Linear) QuantizeFrozen() bool {
	if l.W.RequiresGrad() || l.LoraA != nil {
		return false
	}
	l.QW = tensor.QuantizeWeight(l.W.Value)
	return true
}

// LayerNorm normalizes over the last dimension with learned scale/shift.
type LayerNorm struct {
	Gamma *autograd.Variable
	Beta  *autograd.Variable
	Eps   float32
}

// NewLayerNorm returns a LayerNorm over vectors of width dim.
func NewLayerNorm(dim int) *LayerNorm {
	return &LayerNorm{
		Gamma: autograd.NewParam(tensor.Ones(dim)),
		Beta:  autograd.NewParam(tensor.New(dim)),
		Eps:   1e-5,
	}
}

// Forward applies layer normalization.
func (l *LayerNorm) Forward(x *autograd.Variable) *autograd.Variable {
	return autograd.LayerNorm(x, l.Gamma, l.Beta, l.Eps)
}

// Value is Forward on bare tensors: the same kernel, with the row
// statistics a backward would need handed straight back to the pool.
func (l *LayerNorm) Value(x *tensor.Tensor) *tensor.Tensor {
	rows := x.Numel() / x.Dim(x.Dims()-1)
	stats := tensor.LayerNormStats{Mean: tensor.Get(rows), InvStd: tensor.Get(rows)}
	y := tensor.LayerNormForwardStats(x, l.Gamma.Value, l.Beta.Value, l.Eps, &stats)
	tensor.Put(stats.Mean)
	tensor.Put(stats.InvStd)
	return y
}

// Params implements Module.
func (l *LayerNorm) Params() []*autograd.Variable { return []*autograd.Variable{l.Gamma, l.Beta} }

// Embedding maps token ids to dense vectors.
type Embedding struct {
	Table *autograd.Variable // [vocab, dim]
	dim   int
}

// NewEmbedding returns an embedding table with N(0, 0.02²) entries.
func NewEmbedding(vocab, dim int, rng *tensor.RNG) *Embedding {
	return &Embedding{
		Table: autograd.NewParam(rng.Randn(0.02, vocab, dim)),
		dim:   dim,
	}
}

// Forward looks up ids (flattened batch×seq) and reshapes to
// [batch, seq, dim].
func (e *Embedding) Forward(ids [][]int) *autograd.Variable {
	batch := len(ids)
	seq := len(ids[0])
	flat := make([]int, 0, batch*seq)
	for _, row := range ids {
		if len(row) != seq {
			panic("nn: ragged id batch")
		}
		flat = append(flat, row...)
	}
	emb := autograd.Embedding(e.Table, flat)
	return autograd.Reshape(emb, batch, seq, e.dim)
}

// Params implements Module.
func (e *Embedding) Params() []*autograd.Variable { return []*autograd.Variable{e.Table} }

// FeedForward is the transformer position-wise MLP:
// GELU(x·W1 + b1)·W2 + b2.
type FeedForward struct {
	Up   *Linear
	Down *Linear
}

// NewFeedForward returns a FeedForward with hidden width ffDim.
func NewFeedForward(dim, ffDim int, rng *tensor.RNG) *FeedForward {
	return &FeedForward{
		Up:   NewLinear(dim, ffDim, rng),
		Down: NewLinear(ffDim, dim, rng),
	}
}

// Forward applies the MLP. Without LoRA bypasses both halves fuse:
// gelu(x·W1 + b1) in one node, the down-projection in another.
func (f *FeedForward) Forward(x *autograd.Variable) *autograd.Variable {
	if f.Up.LoraA == nil && f.Down.LoraA == nil {
		if f.usesInt8(x.RequiresGrad()) {
			h := autograd.AffineGELUQuantized(x, f.Up.QW, f.Up.B)
			return autograd.AffineQuantized(h, f.Down.QW, f.Down.B)
		}
		return autograd.Affine(autograd.AffineGELU(x, f.Up.W, f.Up.B), f.Down.W, f.Down.B)
	}
	return f.Down.Forward(autograd.GELU(f.Up.Forward(x)))
}

// usesInt8 is the fused block's gating rule, shared by Forward and Value:
// both halves take their int8 forms or neither does.
func (f *FeedForward) usesInt8(xGrad bool) bool {
	return f.Up.usesInt8(xGrad) && f.Down.usesInt8(xGrad)
}

// Value is Forward on bare tensors (see Linear.Value): gelu(x·W1 + b1)
// activated in place, then the down-projection.
func (f *FeedForward) Value(x *tensor.Tensor) *tensor.Tensor {
	if f.Up.LoraA != nil || f.Down.LoraA != nil {
		panic("nn: FeedForward.Value with a LoRA bypass attached")
	}
	quantized := f.usesInt8(false)
	h := f.Up.project(x, quantized)
	tensor.GELUInto(h, h)
	y := f.Down.project(h, quantized)
	tensor.PutTensor(h)
	keepLeading(y, x)
	return y
}

// QuantizeFrozen quantizes both halves when frozen, reporting how many
// projections now carry int8 forms.
func (f *FeedForward) QuantizeFrozen() int {
	n := 0
	if f.Up.QuantizeFrozen() {
		n++
	}
	if f.Down.QuantizeFrozen() {
		n++
	}
	return n
}

// Params implements Module.
func (f *FeedForward) Params() []*autograd.Variable {
	return append(f.Up.Params(), f.Down.Params()...)
}

// Bottleneck is a Houlsby-style adapter: a residual down/up projection
// x + GELU(x·Down)·Up inserted at the end of a transformer layer
// (in-backbone PEFT). Up starts at zero so insertion is a no-op.
type Bottleneck struct {
	Down *autograd.Variable // [dim, r]
	Up   *autograd.Variable // [r, dim]
	dim  int
}

// NewBottleneck returns an adapter with hidden width r for layer width
// dim.
func NewBottleneck(dim, r int, rng *tensor.RNG) *Bottleneck {
	return &Bottleneck{
		Down: autograd.NewParam(rng.XavierUniform(dim, r, dim, r)),
		Up:   autograd.NewParam(tensor.New(r, dim)),
		dim:  dim,
	}
}

// Forward applies the residual bottleneck (fused: bias-free AffineGELU
// down, bias-free Affine up, residual add).
func (b *Bottleneck) Forward(x *autograd.Variable) *autograd.Variable {
	h := autograd.Affine(autograd.AffineGELU(x, b.Down, nil), b.Up, nil)
	return autograd.Add(x, h)
}

// Params implements Module.
func (b *Bottleneck) Params() []*autograd.Variable {
	return []*autograd.Variable{b.Down, b.Up}
}
