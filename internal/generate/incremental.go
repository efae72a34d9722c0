package generate

import (
	"errors"
	"fmt"
	"math"

	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/tensor"
)

// memKV accounts generation state held across decode steps: the
// cross-attention K/V and padding mask, a side network's decoder start
// state, and the growing self-attention K/V cache. Reserved at decoder
// creation, extended as the KV cache grows, released by Close.
var memKV = memledger.Default().Account("generate.kv")

// tensorBytes is the float32 payload size of t (0 for nil).
func tensorBytes(t *tensor.Tensor) int64 {
	if t == nil {
		return 0
	}
	return int64(t.Numel()) * 4
}

// IncrementalDecoder decodes one token per step in O(1) work per new
// position — the KV-cache decode loop of LLM inference engines. The
// encoder runs once, each decoder layer's cross-attention keys/values
// are computed once, and self-attention keys/values are cached and
// extended as the sequence grows. A step records no autograd node: every
// projection, norm and activation is the value form of the layer a full
// forward runs (nn.Linear.Value, nn.LayerNorm.Value, nn.FeedForward.Value),
// on the same kernels. Each of those kernels computes an output row from
// that row alone, in one in-order chain, and the entries a causal mask
// blocks in a full forward come out of the softmax as exact zeros that
// join the end of each chain — so a step's logits equal bit for bit the
// last row of a full forward over the same prefix (barring an Inf or NaN
// weight, whose zero products would not vanish).
//
// One engine serves two heads: the backbone's own LM head
// (NewIncrementalDecoder), or a Parallel Adapters side network
// (NewParallelDecoder). The side network's encoder half and crossover
// run once per decoder; each step then feeds the new position's taps —
// one row per decoder layer — through its decoder half, and the
// backbone's LM head, whose output Parallel Adapters discard, never runs.
type IncrementalDecoder struct {
	m     *model.Model
	side  *peft.Parallel // nil: the backbone's LM head
	batch int
	pos   int // decoded positions so far
	scale float32

	embed     *model.DecEmbed
	layers    []*decLayerState
	head      *model.LMHead
	crossMask *tensor.Tensor // [batch·heads, 1, encSeq]; nil without lens
	start     *tensor.Tensor // side head: CrossOver's [batch, 1, r] state
	logits    *tensor.Tensor // the last Step's result, recycled by the next

	// kvBytes is what this decoder has reserved in the generate.kv
	// ledger account: cross K/V, mask and start state at creation, plus
	// the self-attention cache as it grows per Step. Close releases it.
	kvBytes int64
}

// decLayerState caches one decoder layer's attention state.
type decLayerState struct {
	layer *model.DecLayer
	// Self-attention cache, grown per step (GC-owned, see appendPos):
	// [batch·heads, t, dh].
	selfK, selfV *tensor.Tensor
	// Cross-attention keys/values, fixed: [batch·heads, encSeq, dh].
	crossK, crossV *tensor.Tensor
}

// NewIncrementalDecoder prepares a session that decodes through the
// backbone's own LM head. The model must be LM-configured and carry no
// in-backbone adapters or LoRA bypasses (techniques that alter the
// backbone math decode through Decode).
func NewIncrementalDecoder(m *model.Model, encIDs [][]int, lens []int) (*IncrementalDecoder, error) {
	return newDecoder(m, nil, encIDs, lens)
}

// NewParallelDecoder prepares a session that decodes through p's side
// network over its frozen backbone: the personalised model, step for
// step the one Decode(p, …) runs.
func NewParallelDecoder(p *peft.Parallel, encIDs [][]int, lens []int) (*IncrementalDecoder, error) {
	return newDecoder(p.Backbone(), p, encIDs, lens)
}

func newDecoder(m *model.Model, side *peft.Parallel, encIDs [][]int, lens []int) (*IncrementalDecoder, error) {
	if !m.Cfg.LM {
		return nil, fmt.Errorf("generate: incremental decoding requires an LM-configured model")
	}
	dh := m.Cfg.Hidden / m.Cfg.Heads
	d := &IncrementalDecoder{m: m, side: side, batch: len(encIDs), scale: float32(1 / math.Sqrt(float64(dh)))}
	for _, b := range m.Blocks {
		switch blk := b.(type) {
		case *model.EncLayer:
			if blk.Post != nil || bypassed(blk.Attn) {
				return nil, errBackboneAltered
			}
		case *model.DecEmbed:
			d.embed = blk
		case *model.DecLayer:
			if blk.Post != nil || bypassed(blk.SelfAttn) || bypassed(blk.CrossAttn) {
				return nil, errBackboneAltered
			}
			d.layers = append(d.layers, &decLayerState{layer: blk})
		case *model.LMHead:
			d.head = blk
		}
	}
	if d.head == nil {
		return nil, fmt.Errorf("generate: model lacks an LM head")
	}

	// The encoder region runs once, through the frozen backbone's walk:
	// only the taps stay, and the last of them is the encoder output.
	s := &model.State{EncIDs: encIDs, EncLens: lens}
	encTaps := m.FrozenForward(s, 0, m.Cfg.Layers+1, nil)
	enc := s.Enc.Value
	for _, st := range d.layers {
		st.crossK = d.splitHeads(st.layer.CrossAttn.K, enc)
		st.crossV = d.splitHeads(st.layer.CrossAttn.V, enc)
		d.kvBytes += tensorBytes(st.crossK) + tensorBytes(st.crossV)
	}
	if lens != nil {
		d.crossMask = nn.PaddingMask(lens, m.Cfg.Heads, 1, enc.Dim(1))
	}
	if side != nil {
		d.start = side.SideStart(encTaps)
	}
	for _, t := range encTaps {
		tensor.PutTensor(t)
	}
	d.kvBytes += tensorBytes(d.crossMask) + tensorBytes(d.start)
	memKV.Reserve(d.kvBytes)
	return d, nil
}

var errBackboneAltered = errors.New("generate: incremental decoding does not support in-backbone adapters or LoRA")

// bypassed reports whether LoRA attached to an attention block (LoRA
// attaches to Q and V only).
func bypassed(a *nn.MultiHeadAttention) bool { return a.Q.LoraA != nil || a.V.LoraA != nil }

// splitHeads projects x through l and splits the heads:
// [batch, seq, hidden] → [batch·heads, seq, dh].
func (d *IncrementalDecoder) splitHeads(l *nn.Linear, x *tensor.Tensor) *tensor.Tensor {
	y := l.Value(x)
	out := tensor.SplitHeads(y, d.m.Cfg.Heads)
	tensor.PutTensor(y)
	return out
}

// Close returns the decoder's pooled state (cross K/V, mask, start
// state, the last logits), drops its GC-owned self-attention cache and
// settles its generate.kv ledger reservation. Idempotent; the decoder is
// unusable afterwards.
func (d *IncrementalDecoder) Close() {
	for _, st := range d.layers {
		tensor.PutTensor(st.crossK)
		tensor.PutTensor(st.crossV)
		st.crossK, st.crossV, st.selfK, st.selfV = nil, nil, nil, nil
	}
	for _, t := range []*tensor.Tensor{d.crossMask, d.start, d.logits} {
		tensor.PutTensor(t)
	}
	d.crossMask, d.start, d.logits = nil, nil, nil
	if d.kvBytes != 0 {
		memKV.Release(d.kvBytes)
		d.kvBytes = 0
	}
}

// Step feeds one new token per batch row (position pos) and returns the
// next-token logits [batch, vocab]. The logits stay valid until the next
// Step or Close, which recycle them.
func (d *IncrementalDecoder) Step(tokens []int) *tensor.Tensor {
	if len(tokens) != d.batch {
		panic("generate: token count mismatch")
	}
	tensor.PutTensor(d.logits)
	d.logits = nil
	hidden := d.m.Cfg.Hidden

	// Embed the single new position, as DecEmbed.Forward does.
	emb := tensor.New(d.batch, 1, hidden)
	posRow := d.embed.Pos.Table.Value.Data[d.pos*hidden : (d.pos+1)*hidden]
	for i, tok := range tokens {
		tokRow := d.embed.Tok.Table.Value.Data[tok*hidden : (tok+1)*hidden]
		dst := emb.Data[i*hidden : (i+1)*hidden]
		for j := range dst {
			dst[j] = tokRow[j] + posRow[j]
		}
	}

	// Each layer's output row is the tap the side network reads.
	x := emb
	taps := make([]*tensor.Tensor, 0, len(d.layers))
	for _, st := range d.layers {
		x = d.layerStep(st, x)
		taps = append(taps, x)
	}
	d.pos++

	if d.side != nil {
		d.logits = d.side.SideLogits(d.start, taps)
	} else {
		h := d.head.LN.Value(x)
		h.SetShape(d.batch, hidden)
		d.logits = d.head.Proj.Value(h)
		tensor.PutTensor(h)
	}
	tensor.PutTensor(emb)
	for _, t := range taps {
		tensor.PutTensor(t)
	}
	return d.logits
}

// layerStep runs one decoder layer on the new position x ([batch, 1,
// hidden]) and returns its output in a fresh buffer, leaving x intact.
func (d *IncrementalDecoder) layerStep(st *decLayerState, x *tensor.Tensor) *tensor.Tensor {
	l := st.layer

	// Self-attention over the cached prefix plus the new position.
	h := l.LN1.Value(x)
	q := d.splitHeads(l.SelfAttn.Q, h)
	k := d.splitHeads(l.SelfAttn.K, h)
	v := d.splitHeads(l.SelfAttn.V, h)
	tensor.PutTensor(h)
	grown := tensorBytes(k) + tensorBytes(v)
	st.selfK = appendPos(st.selfK, k)
	st.selfV = appendPos(st.selfV, v)
	d.kvBytes += grown
	memKV.Add(grown)
	a := d.attend(l.SelfAttn, q, st.selfK, st.selfV, nil)
	out := tensor.Add(x, a)
	tensor.PutTensor(a)

	// Cross-attention over the encoder's K/V.
	h = l.LN2.Value(out)
	q = d.splitHeads(l.CrossAttn.Q, h)
	tensor.PutTensor(h)
	a = d.attend(l.CrossAttn, q, st.crossK, st.crossV, d.crossMask)
	tensor.AddInPlace(out, a)
	tensor.PutTensor(a)

	// Feed-forward.
	h = l.LN3.Value(out)
	a = l.FF.Value(h)
	tensor.PutTensor(h)
	tensor.AddInPlace(out, a)
	tensor.PutTensor(a)
	return out
}

// attend is MultiHeadAttention.Forward's score path for the new
// position's query q ([batch·heads, 1, dh]), which it consumes:
// Q·Kᵀ/√dh in one kernel, the additive mask and the softmax in place,
// the context product, merged heads and the output projection.
func (d *IncrementalDecoder) attend(mha *nn.MultiHeadAttention, q, k, v, mask *tensor.Tensor) *tensor.Tensor {
	scores := tensor.BatchMatMulTScaled(q, k, d.scale)
	tensor.PutTensor(q)
	if mask != nil {
		tensor.AddInPlace(scores, mask)
	}
	tensor.SoftmaxInPlace(scores)
	ctx := tensor.BatchMatMul(scores, v)
	tensor.PutTensor(scores)
	merged := tensor.MergeHeads(ctx, mha.Heads)
	tensor.PutTensor(ctx)
	out := mha.O.Value(merged)
	tensor.PutTensor(merged)
	return out
}

// appendPos returns the [b, t, d] cache (nil for t = 0) grown by one
// position row [b, 1, d], and returns row to the pool. The grown cache is
// a fresh GC-owned buffer, not a pooled one: the cache is request state,
// reallocated at every step at a size set by the request's batch and
// length, and the pool keeps every buffer it hands out for the life of
// the process, while the heap gives it back once the request is done.
func appendPos(cache, row *tensor.Tensor) *tensor.Tensor {
	batch, dim := row.Dim(0), row.Dim(2)
	t, old := 0, []float32(nil)
	if cache != nil {
		t, old = cache.Dim(1), cache.Data
	}
	out := tensor.FromSlice(make([]float32, batch*(t+1)*dim), batch, t+1, dim)
	for i := 0; i < batch; i++ {
		copy(out.Data[i*(t+1)*dim:], old[i*t*dim:(i+1)*t*dim])
		copy(out.Data[(i*(t+1)+t)*dim:], row.Data[i*dim:(i+1)*dim])
	}
	tensor.PutTensor(row)
	return out
}

// DecodeIncremental generates through the backbone's LM head with the KV
// cache; its semantics match Decode with greedy or temperature sampling.
func DecodeIncremental(m *model.Model, enc [][]int, lens []int, opts Options) ([][]int, error) {
	d, err := NewIncrementalDecoder(m, enc, lens)
	if err != nil {
		return nil, err
	}
	return d.decode(opts), nil
}

// DecodeParallel generates through p's side network with the KV cache:
// the same tokens Decode(p, enc, lens, opts) returns — each step's logits
// are the bits Decode picks from — at one decoder row per token instead
// of a full re-run of encoder and decoder.
func DecodeParallel(p *peft.Parallel, enc [][]int, lens []int, opts Options) ([][]int, error) {
	d, err := NewParallelDecoder(p, enc, lens)
	if err != nil {
		return nil, err
	}
	return d.decode(opts), nil
}

// decode is Decode's loop on the cached decoder: the same picks, in the
// same row order (so the same RNG draws), the same EOS padding of
// finished rows, and the same output shape. It closes d.
func (d *IncrementalDecoder) decode(opts Options) [][]int {
	defer d.Close()
	if opts.MaxLen <= 0 {
		opts.MaxLen = 16
	}
	rng := tensor.NewRNG(opts.Seed)
	current := make([]int, d.batch)
	for i := range current {
		current[i] = BOS
	}
	done := make([]bool, d.batch)
	out := make([][]int, d.batch)
	for i := range out {
		out[i] = []int{}
	}
	for step := 0; step < opts.MaxLen; step++ {
		logits := d.Step(current)
		vocab := logits.Dim(1)
		allDone := true
		for i := range current {
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
	return out
}
