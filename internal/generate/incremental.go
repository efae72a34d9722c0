package generate

import (
	"fmt"
	"math"

	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/tensor"
)

// memKV accounts generation state held across decode steps: the cached
// encoder output, the cross-attention K/V and the growing
// self-attention K/V cache. Reserved at decoder creation, extended as
// the KV cache grows, released by Close.
var memKV = memledger.Default().Account("generate.kv")

// tensorBytes is the float32 payload size of t (0 for nil).
func tensorBytes(t *tensor.Tensor) int64 {
	if t == nil {
		return 0
	}
	return int64(t.Numel()) * 4
}

// IncrementalDecoder decodes one token per step in O(1) work per new
// position: the encoder runs once, each decoder layer's cross-attention
// keys/values are precomputed, and self-attention keys/values are
// cached and extended as the sequence grows — the standard KV-cache
// optimization of LLM inference engines, built on the frozen-value
// (inference-only) tensor path.
type IncrementalDecoder struct {
	m     *model.Model
	lens  []int
	batch int
	pos   int // decoded positions so far

	enc *tensor.Tensor // [batch, encSeq, hidden]

	layers []*decLayerState
	head   *model.LMHead

	// kvBytes is what this decoder has reserved in the generate.kv
	// ledger account: encoder output + cross K/V at creation, plus the
	// self-attention cache as it grows per Step. Close releases it.
	kvBytes int64
}

// decLayerState caches one decoder layer's attention state.
type decLayerState struct {
	layer *model.DecLayer
	// Self-attention cache, grown per step: [batch·heads, t, dh].
	selfK, selfV *tensor.Tensor
	// Cross-attention keys/values, fixed: [batch·heads, encSeq, dh].
	crossK, crossV *tensor.Tensor
}

// NewIncrementalDecoder prepares a session for a batch of encoder
// inputs. The model must be LM-configured, and its decoder layers must
// carry no in-backbone adapters (the KV fast path serves the frozen
// backbone; techniques that alter the decoder math fall back to Decode).
func NewIncrementalDecoder(m *model.Model, encIDs [][]int, lens []int) (*IncrementalDecoder, error) {
	if !m.Cfg.LM {
		return nil, fmt.Errorf("generate: incremental decoding requires an LM-configured model")
	}
	// Run the encoder region once.
	s := &model.State{EncIDs: encIDs, EncLens: lens}
	m.ForwardRange(s, 0, m.Cfg.Layers+1)

	d := &IncrementalDecoder{m: m, lens: lens, batch: len(encIDs), enc: s.Enc.Value}
	for _, b := range m.Blocks {
		switch blk := b.(type) {
		case *model.DecLayer:
			if blk.Post != nil {
				return nil, fmt.Errorf("generate: incremental decoding does not support in-backbone adapters")
			}
			st := &decLayerState{layer: blk}
			// Precompute cross K/V from the encoder output.
			heads := m.Cfg.Heads
			st.crossK = tensor.SplitHeads(applyLinear(blk.CrossAttn.K, d.enc), heads)
			st.crossV = tensor.SplitHeads(applyLinear(blk.CrossAttn.V, d.enc), heads)
			d.layers = append(d.layers, st)
		case *model.LMHead:
			d.head = blk
		}
	}
	if d.head == nil {
		return nil, fmt.Errorf("generate: model lacks an LM head")
	}
	d.kvBytes = tensorBytes(d.enc)
	for _, st := range d.layers {
		d.kvBytes += tensorBytes(st.crossK) + tensorBytes(st.crossV)
	}
	memKV.Reserve(d.kvBytes)
	return d, nil
}

// Close settles the decoder's generate.kv ledger reservation (encoder
// output, cross K/V, and the accumulated self-attention cache).
// Idempotent.
func (d *IncrementalDecoder) Close() {
	if d.kvBytes == 0 {
		return
	}
	memKV.Release(d.kvBytes)
	d.kvBytes = 0
}

// applyLinear computes x·W + b on raw tensors, preserving leading dims.
// Frozen projections carrying an int8 form take the quantized matmul
// when the active backend asks for it — the incremental decoder runs the
// backbone outside autograd, so it gates only on the weight, never on
// gradient state.
func applyLinear(l *nn.Linear, x *tensor.Tensor) *tensor.Tensor {
	shape := x.Shape()
	var y *tensor.Tensor
	if l.QW != nil && !l.W.RequiresGrad() && tensor.BackendQuantized() {
		y = tensor.QuantMatMul(x, l.QW)
	} else {
		y = tensor.MatMul(x, l.W.Value)
	}
	y = tensor.AddRowBroadcast(y, l.B.Value)
	out := append(append([]int(nil), shape[:len(shape)-1]...), l.Out())
	return y.Reshape(out...)
}

// applyLN normalizes on raw tensors.
func applyLN(l *nn.LayerNorm, x *tensor.Tensor) *tensor.Tensor {
	out, _ := tensor.LayerNormForward(x, l.Gamma.Value, l.Beta.Value, l.Eps)
	return out
}

// Step feeds one new token per batch row (position pos) and returns the
// next-token logits [batch, vocab].
func (d *IncrementalDecoder) Step(tokens []int) *tensor.Tensor {
	if len(tokens) != d.batch {
		panic("generate: token count mismatch")
	}
	cfg := d.m.Cfg
	heads := cfg.Heads
	dh := cfg.Hidden / heads

	// Embed the single new position, mirroring DecEmbed.Forward.
	var decEmbed *model.DecEmbed
	for _, b := range d.m.Blocks {
		if de, ok := b.(*model.DecEmbed); ok {
			decEmbed = de
			break
		}
	}
	x := tensor.New(d.batch, 1, cfg.Hidden)
	for i, tok := range tokens {
		tokRow := decEmbed.Tok.Table.Value.Data[tok*cfg.Hidden : (tok+1)*cfg.Hidden]
		posRow := decEmbed.Pos.Table.Value.Data[d.pos*cfg.Hidden : (d.pos+1)*cfg.Hidden]
		dst := x.Data[i*cfg.Hidden : (i+1)*cfg.Hidden]
		for j := range dst {
			dst[j] = tokRow[j] + posRow[j]
		}
	}

	scale := float32(1 / math.Sqrt(float64(dh)))
	for _, st := range d.layers {
		l := st.layer
		// Self-attention over the cached prefix + the new position.
		h := applyLN(l.LN1, x)
		q := tensor.SplitHeads(applyLinear(l.SelfAttn.Q, h), heads) // [b·h, 1, dh]
		k := tensor.SplitHeads(applyLinear(l.SelfAttn.K, h), heads)
		v := tensor.SplitHeads(applyLinear(l.SelfAttn.V, h), heads)
		if st.selfK == nil {
			st.selfK, st.selfV = k, v
		} else {
			st.selfK = concatSeq(st.selfK, k)
			st.selfV = concatSeq(st.selfV, v)
		}
		// Account the self-attention cache growth: one new position of
		// K and V per layer per step.
		grown := tensorBytes(k) + tensorBytes(v)
		d.kvBytes += grown
		memKV.Add(grown)
		scores := tensor.Scale(tensor.BatchMatMulT(q, st.selfK), scale)
		probs := tensor.Softmax(scores)
		ctx := tensor.BatchMatMul(probs, st.selfV)
		attnOut := applyLinear(l.SelfAttn.O, tensor.MergeHeads(ctx, heads))
		x = tensor.Add(x, attnOut)

		// Cross-attention over the precomputed encoder K/V.
		h = applyLN(l.LN2, x)
		q = tensor.SplitHeads(applyLinear(l.CrossAttn.Q, h), heads)
		scores = tensor.Scale(tensor.BatchMatMulT(q, st.crossK), scale)
		if d.lens != nil {
			mask := nn.PaddingMask(d.lens, heads, 1, d.enc.Dim(1))
			scores = tensor.Add(scores, mask)
		}
		probs = tensor.Softmax(scores)
		ctx = tensor.BatchMatMul(probs, st.crossV)
		x = tensor.Add(x, applyLinear(l.CrossAttn.O, tensor.MergeHeads(ctx, heads)))

		// Feed-forward.
		h = applyLN(l.LN3, x)
		up := applyLinear(l.FF.Up, h)
		up = tensor.Apply(up, geluF32)
		x = tensor.Add(x, applyLinear(l.FF.Down, up))
	}
	d.pos++

	// LM head for the single position.
	out := applyLN(d.head.LN, x)
	return applyLinear(d.head.Proj, out.Reshape(d.batch, d.m.Cfg.Hidden))
}

// geluF32 mirrors autograd.GELU's tanh approximation.
func geluF32(v float32) float32 {
	const c = 0.7978845608028654
	x := float64(v)
	return float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
}

// concatSeq appends along the sequence dimension: [b, t, d] + [b, 1, d].
func concatSeq(a, b *tensor.Tensor) *tensor.Tensor {
	batch, t, dim := a.Dim(0), a.Dim(1), a.Dim(2)
	out := tensor.New(batch, t+1, dim)
	for i := 0; i < batch; i++ {
		copy(out.Data[i*(t+1)*dim:], a.Data[i*t*dim:(i+1)*t*dim])
		copy(out.Data[(i*(t+1)+t)*dim:], b.Data[i*dim:(i+1)*dim])
	}
	return out
}

// DecodeIncremental generates with the KV cache; semantics match Decode
// with greedy or temperature sampling.
func DecodeIncremental(m *model.Model, enc [][]int, lens []int, opts Options) ([][]int, error) {
	if opts.MaxLen <= 0 {
		opts.MaxLen = 16
	}
	d, err := NewIncrementalDecoder(m, enc, lens)
	if err != nil {
		return nil, err
	}
	defer d.Close()
	rng := tensor.NewRNG(opts.Seed)
	batch := len(enc)
	current := make([]int, batch)
	for i := range current {
		current[i] = BOS
	}
	done := make([]bool, batch)
	out := make([][]int, batch)
	for step := 0; step < opts.MaxLen; step++ {
		logits := d.Step(current)
		vocab := logits.Dim(1)
		allDone := true
		for i := 0; i < batch; i++ {
			if done[i] {
				current[i] = EOS
				continue
			}
			next := pick(logits.Data[i*vocab:(i+1)*vocab], opts.Temperature, rng)
			current[i] = next
			if next == EOS {
				done[i] = true
			} else {
				out[i] = append(out[i], next)
				allDone = false
			}
		}
		if allDone {
			break
		}
	}
	return out, nil
}
