package peft

import (
	"pac/internal/autograd"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/tensor"
)

// Parallel implements the paper's Parallel Adapters: a lightweight side
// network running next to the frozen backbone. Each per-layer adapter
// consumes the backbone tap activation b_i and the previous side state:
//
//	a_i = GELU(LN_i(b_i)·D_i + a_{i-1}·R_i)            (paper Eq. 1)
//
// The side hidden width is Hidden/Reduction (paper: reduction factor
// k = 8). Because no trainable parameter lives inside the backbone,
// gradients never traverse it, and because the backbone is frozen its
// taps are input-invariant — enabling the activation cache.
type Parallel struct {
	m    *model.Model
	cfg  model.Config
	r    int
	taps int

	norms []*nn.LayerNorm      // LN_i over backbone width
	down  []*autograd.Variable // D_i [hidden, r]
	mix   []*autograd.Variable // R_i [r, r]
	head  *nn.Linear           // [r, classes]
}

// NewParallel freezes m and builds the side network. Down-projections
// are initialized by structural pruning of the corresponding backbone
// layer's feed-forward weights (paper §6.1); the recurrent mixes start
// at zero so early training is dominated by the backbone features.
func NewParallel(m *model.Model, opts Options) *Parallel {
	opts = opts.withDefaults()
	m.Freeze()
	h := m.Cfg.Hidden
	r := h / opts.Reduction
	if r < 1 {
		r = 1
	}
	rng := tensor.NewRNG(opts.Seed)
	p := &Parallel{m: m, cfg: m.Cfg, r: r, taps: m.NumTaps()}
	layerIdx := m.LayerBlocks()
	for _, bi := range layerIdx {
		p.norms = append(p.norms, nn.NewLayerNorm(h))
		p.down = append(p.down, autograd.NewParam(pruneInit(m.Blocks[bi], h, r, rng.Split())))
		p.mix = append(p.mix, autograd.NewParam(tensor.New(r, r)))
	}
	p.head = nn.NewLinear(r, m.Cfg.NumClasses, rng.Split())
	return p
}

// pruneInit builds a [h, r] down-projection from evenly strided columns
// of the layer's feed-forward up-projection — the structural-pruning
// initialization the paper uses so the side network starts from backbone
// features rather than noise.
func pruneInit(b model.Block, h, r int, rng *tensor.RNG) *tensor.Tensor {
	var w *tensor.Tensor
	switch l := b.(type) {
	case *model.EncLayer:
		w = l.FF.Up.W.Value
	case *model.DecLayer:
		w = l.FF.Up.W.Value
	default:
		return rng.XavierUniform(h, r, h, r)
	}
	ff := w.Dim(1)
	out := tensor.New(h, r)
	stride := ff / r
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < h; i++ {
		for j := 0; j < r; j++ {
			out.Data[i*r+j] = w.Data[i*ff+(j*stride)%ff]
		}
	}
	return out
}

// QuantizeBackbone builds the int8 forms of the frozen backbone's
// projections (Model.QuantizeBackbone) and returns how many were built.
// The side network (norms, down/mix, head) is trainable and never
// quantized. A backbone shared by several side networks is quantized
// once, by whoever built it.
func (p *Parallel) QuantizeBackbone() int { return p.m.QuantizeBackbone() }

// Kind implements Technique.
func (p *Parallel) Kind() Kind { return ParallelAdapters }

// BackboneBackward implements Technique: the side network's gradient
// "highway" never enters the backbone.
func (p *Parallel) BackboneBackward() bool { return false }

// Trainable implements Technique.
func (p *Parallel) Trainable() []*autograd.Variable {
	var out []*autograd.Variable
	for i := range p.down {
		out = append(out, p.norms[i].Params()...)
		out = append(out, p.down[i], p.mix[i])
	}
	return append(out, p.head.Params()...)
}

// Forward implements Technique: it runs the frozen backbone forward
// (tape-free) to obtain taps, then the side network over them. The
// returned Result carries the tap values for the activation cache.
func (p *Parallel) Forward(enc, dec [][]int, lens []int, train bool) *Result {
	taps := p.BackboneTaps(enc, dec, lens)
	return &Result{Logits: p.ForwardFromTaps(taps), Taps: taps}
}

// BackboneTaps runs only the frozen backbone over a batch and returns
// its tap activations — the first half of Forward, and all that a cache
// miss or a cache salvage needs: the side network is never built. The
// taps sit in pooled buffers the caller owns: hand them to a cache that
// keeps them, or tensor.PutTensor them.
func (p *Parallel) BackboneTaps(enc, dec [][]int, lens []int) []*tensor.Tensor {
	s := p.m.Forward(enc, dec, lens, false) // backbone always eval-mode: taps must be input-invariant
	taps := make([]*tensor.Tensor, len(s.Taps))
	for i, t := range s.Taps {
		taps[i] = t.Value
	}
	// The backbone's evaluation graph is dead weight once the taps are
	// extracted: gradients never traverse it (the side network reads tap
	// values through fresh leaves). Tear it down now, keeping only the
	// tap tensors, so every backbone intermediate goes back to the pool.
	autograd.ReleaseExcept(taps, s.Logits, s.Enc, s.Dec)
	// A root's value outlives the sweep for the caller to read, and the
	// backbone's own logits have no reader.
	tensor.PutTensor(s.Logits.Value)
	return taps
}

// NumTaps returns the number of side adapters (2 × layers).
func (p *Parallel) NumTaps() int { return p.taps }

// SideInit returns the zero side state a_0 for a batch of the given
// sequence length, so every adapter — including the first — has the same
// f_i(b_i, a_{i-1}) form. The zeros are GC-owned, not pooled: a_0 is a
// graph leaf, and a release sweep never returns a leaf to the pool.
func (p *Parallel) SideInit(batch, seq int) *autograd.Variable {
	return autograd.NewVar(tensor.FromSlice(make([]float32, batch*seq*p.r), batch, seq, p.r))
}

// SideStep applies adapter i: a_i = GELU(LN_i(b_i)·D_i + a_{i-1}·R_i).
// tap is the frozen backbone activation b_i; state is a_{i-1} with a
// matching [batch, seq, r] shape.
func (p *Parallel) SideStep(i int, tap *tensor.Tensor, state *autograd.Variable) *autograd.Variable {
	b := autograd.NewVar(tap)
	// Fused: both projections keep their 3-D shape (no reshape views) and
	// the add+GELU lands in a single node.
	u := autograd.Affine(p.norms[i].Forward(b), p.down[i], nil)
	mixed := autograd.Affine(state, p.mix[i], nil)
	return autograd.AddGELU(u, mixed)
}

// CrossOver converts the encoder-side state into the decoder-side
// initial state: pool over the encoder sequence, broadcast across
// decoder positions.
func (p *Parallel) CrossOver(encState *autograd.Variable, decSeq int) *autograd.Variable {
	return autograd.BroadcastSeq(autograd.MeanSeq(encState), decSeq)
}

// Head projects the final decoder-side state to logits: pooled for
// classification, per-position [batch·decSeq, vocab] for language
// modeling.
func (p *Parallel) Head(state *autograd.Variable) *autograd.Variable {
	if p.cfg.LM {
		batch, seq := state.Value.Dim(0), state.Value.Dim(1)
		out := p.head.Forward(state)
		return autograd.Reshape(out, batch*seq, p.cfg.NumClasses)
	}
	return p.head.Forward(autograd.MeanSeq(state))
}

// ForwardFromTaps runs only the side network given backbone tap values —
// the cache-hit path that skips the backbone entirely (paper §4.2).
// Taps are ordered encoder layers then decoder layers; encoder taps are
// [batch, seq, hidden], decoder taps [batch, decSeq, hidden].
func (p *Parallel) ForwardFromTaps(taps []*tensor.Tensor) *autograd.Variable {
	if len(taps) != p.taps {
		panic("peft: tap count mismatch")
	}
	encTaps := taps[:p.cfg.Layers]
	decTaps := taps[p.cfg.Layers:]

	encShape := encTaps[0].Shape()
	a := p.SideInit(encShape[0], encShape[1])
	for i, tap := range encTaps {
		a = p.SideStep(i, tap, a)
	}
	a = p.CrossOver(a, decTaps[0].Dim(1))
	for i, tap := range decTaps {
		a = p.SideStep(p.cfg.Layers+i, tap, a)
	}
	return p.Head(a)
}

// SideParams returns the trainable parameters of side adapters
// [tapStart, tapEnd) — the pipeline engine uses it to scope optimizer
// state to the stage owning those taps.
func (p *Parallel) SideParams(tapStart, tapEnd int) []*autograd.Variable {
	var out []*autograd.Variable
	for i := tapStart; i < tapEnd; i++ {
		out = append(out, p.norms[i].Params()...)
		out = append(out, p.down[i], p.mix[i])
	}
	return out
}

// HeadParams returns the side head's trainable parameters.
func (p *Parallel) HeadParams() []*autograd.Variable { return p.head.Params() }
