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

// Clone returns a second side network over the same frozen backbone:
// norms, down, mix and head are fresh parameters holding copies of this
// one's values, the backbone pointer is shared. It writes nothing the two
// share — it never freezes the backbone again, whose RequiresGrad flags
// in-flight forwards read — so it may run while requests use p. The
// copies are GC-owned, not pooled: a replaced side network is dropped,
// never released.
func (p *Parallel) Clone() *Parallel {
	c := *p
	c.norms = make([]*nn.LayerNorm, len(p.norms))
	for i, n := range p.norms {
		ln := *n
		ln.Gamma, ln.Beta = cloneParam(n.Gamma), cloneParam(n.Beta)
		c.norms[i] = &ln
	}
	c.down = make([]*autograd.Variable, len(p.down))
	c.mix = make([]*autograd.Variable, len(p.mix))
	for i := range p.down {
		c.down[i], c.mix[i] = cloneParam(p.down[i]), cloneParam(p.mix[i])
	}
	head := *p.head
	head.W, head.B = cloneParam(p.head.W), cloneParam(p.head.B)
	c.head = &head
	return &c
}

func cloneParam(v *autograd.Variable) *autograd.Variable {
	return autograd.NewParam(tensor.FromSlice(append([]float32(nil), v.Value.Data...), v.Value.Shape()...))
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

// Backbone returns the frozen model the side network reads its taps from.
func (p *Parallel) Backbone() *model.Model { return p.m }

// SideInit returns the zero side state a_0 for a batch of the given
// sequence length, so every adapter — including the first — has the same
// f_i(b_i, a_{i-1}) form. The zeros are GC-owned, not pooled: a_0 is a
// graph leaf, and a release sweep never returns a leaf to the pool.
func (p *Parallel) SideInit(batch, seq int) *autograd.Variable {
	return tape{}.zeros(batch, seq, p.r)
}

// SideStep applies adapter i: a_i = GELU(LN_i(b_i)·D_i + a_{i-1}·R_i).
// tap is the frozen backbone activation b_i; state is a_{i-1} with a
// matching [batch, seq, r] shape.
func (p *Parallel) SideStep(i int, tap *tensor.Tensor, state *autograd.Variable) *autograd.Variable {
	return sideStep[*autograd.Variable](tape{}, p, i, tap, state)
}

// CrossOver converts the encoder-side state into the decoder-side
// initial state: pool over the encoder sequence, broadcast across
// decoder positions.
func (p *Parallel) CrossOver(encState *autograd.Variable, decSeq int) *autograd.Variable {
	return crossOver[*autograd.Variable](tape{}, encState, decSeq)
}

// Head projects the final decoder-side state to logits: pooled for
// classification, per-position [batch·decSeq, vocab] for language
// modeling.
func (p *Parallel) Head(state *autograd.Variable) *autograd.Variable {
	return head[*autograd.Variable](tape{}, p, state)
}

// ForwardFromTaps runs only the side network given backbone tap values —
// the cache-hit path that skips the backbone entirely (paper §4.2).
// Taps are ordered encoder layers then decoder layers; encoder taps are
// [batch, seq, hidden], decoder taps [batch, decSeq, hidden].
func (p *Parallel) ForwardFromTaps(taps []*tensor.Tensor) *autograd.Variable {
	if len(taps) != p.taps {
		panic("peft: tap count mismatch")
	}
	decTaps := taps[p.cfg.Layers:]
	a := sideEncoder[*autograd.Variable](tape{}, p, taps[:p.cfg.Layers], decTaps[0].Dim(1))
	return sideDecoder[*autograd.Variable](tape{}, p, a, decTaps)
}

// SideStart is the encoder half of the side network on bare values, for
// a decoder that runs it once per request: the encoder side steps over
// the Layers encoder taps, then CrossOver to a single decoder position.
// It returns the [batch, 1, r] decoder start state in a pooled buffer
// the caller owns; every intermediate is back in the pool, and no
// autograd node is recorded.
func (p *Parallel) SideStart(encTaps []*tensor.Tensor) *tensor.Tensor {
	v := &values{}
	return v.keep(sideEncoder[*tensor.Tensor](v, p, encTaps, 1))
}

// SideLogits is the decoder half on bare values, for one new position:
// the Layers decoder side steps from start over that position's taps
// ([batch, 1, hidden] each), then the head. It returns [batch, classes]
// logits in a pooled buffer the caller owns, and leaves start and the
// taps untouched. Its bits are the last row ForwardFromTaps computes
// over the same prefix: every op on the way is position-wise.
func (p *Parallel) SideLogits(start *tensor.Tensor, decTaps []*tensor.Tensor) *tensor.Tensor {
	v := &values{}
	return v.keep(sideDecoder[*tensor.Tensor](v, p, start, decTaps))
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

// The side network's math — Eq. 1, the crossover, the head — is written
// once, below, over sideOps: training and the cache-hit path evaluate it
// on the tape, the cached decoder on bare values. Both forms run the same
// kernels in the same order, so they agree bit for bit.

// sideOps is what that math needs from the form it runs in.
type sideOps[T any] interface {
	leaf(t *tensor.Tensor) T
	zeros(batch, seq, n int) T
	norm(l *nn.LayerNorm, x T) T
	affine(x T, w, b *autograd.Variable) T // b may be nil
	addGELU(a, b T) T
	meanSeq(x T) T
	broadcastSeq(x T, seq int) T
	flatten(x T) T // [batch, seq, n] → [batch·seq, n]
}

func sideStep[T any](o sideOps[T], p *Parallel, i int, tap *tensor.Tensor, state T) T {
	u := o.affine(o.norm(p.norms[i], o.leaf(tap)), p.down[i], nil)
	return o.addGELU(u, o.affine(state, p.mix[i], nil))
}

func crossOver[T any](o sideOps[T], encState T, decSeq int) T {
	return o.broadcastSeq(o.meanSeq(encState), decSeq)
}

func head[T any](o sideOps[T], p *Parallel, state T) T {
	if p.cfg.LM {
		return o.flatten(o.affine(state, p.head.W, p.head.B))
	}
	return o.affine(o.meanSeq(state), p.head.W, p.head.B)
}

// sideEncoder runs a_0 through the encoder side steps and crosses over to
// decSeq decoder positions.
func sideEncoder[T any](o sideOps[T], p *Parallel, encTaps []*tensor.Tensor, decSeq int) T {
	shape := encTaps[0].Shape()
	a := o.zeros(shape[0], shape[1], p.r)
	for i, tap := range encTaps {
		a = sideStep(o, p, i, tap, a)
	}
	return crossOver(o, a, decSeq)
}

// sideDecoder runs the decoder side steps from a, then the head.
func sideDecoder[T any](o sideOps[T], p *Parallel, a T, decTaps []*tensor.Tensor) T {
	for i, tap := range decTaps {
		a = sideStep(o, p, p.cfg.Layers+i, tap, a)
	}
	return head(o, p, a)
}

// tape evaluates the side network on autograd Variables. The head is a
// trainable, LoRA-free nn.Linear, whose Forward is exactly Affine.
type tape struct{}

func (tape) leaf(t *tensor.Tensor) *autograd.Variable { return autograd.NewVar(t) }

func (tape) zeros(batch, seq, n int) *autograd.Variable {
	return autograd.NewVar(tensor.FromSlice(make([]float32, batch*seq*n), batch, seq, n))
}

func (tape) norm(l *nn.LayerNorm, x *autograd.Variable) *autograd.Variable { return l.Forward(x) }

func (tape) affine(x, w, b *autograd.Variable) *autograd.Variable { return autograd.Affine(x, w, b) }

func (tape) addGELU(a, b *autograd.Variable) *autograd.Variable { return autograd.AddGELU(a, b) }
func (tape) meanSeq(x *autograd.Variable) *autograd.Variable    { return autograd.MeanSeq(x) }

func (tape) broadcastSeq(x *autograd.Variable, seq int) *autograd.Variable {
	return autograd.BroadcastSeq(x, seq)
}

func (tape) flatten(x *autograd.Variable) *autograd.Variable {
	s := x.Value.Shape()
	return autograd.Reshape(x, s[0]*s[1], s[2])
}

// values evaluates the side network on bare tensors: each op is the
// kernel its autograd twin computes its value with, and nothing is
// recorded for a backward. Every tensor it makes is pooled and listed in
// made; keep hands the result to the caller and returns the rest to the
// pool, the value-side counterpart of a graph's release sweep. Leaves
// (taps, a caller's start state) are never its to free.
type values struct{ made []*tensor.Tensor }

func (v *values) own(t *tensor.Tensor) *tensor.Tensor {
	v.made = append(v.made, t)
	return t
}

func (v *values) keep(out *tensor.Tensor) *tensor.Tensor {
	for _, t := range v.made {
		if t != out {
			tensor.PutTensor(t)
		}
	}
	return out
}

func (v *values) leaf(t *tensor.Tensor) *tensor.Tensor { return t }

func (v *values) zeros(batch, seq, n int) *tensor.Tensor { return v.own(tensor.New(batch, seq, n)) }

func (v *values) norm(l *nn.LayerNorm, x *tensor.Tensor) *tensor.Tensor { return v.own(l.Value(x)) }

// affine is autograd.Affine's value: x·w, the bias added in place, and
// x's leading dimensions kept.
func (v *values) affine(x *tensor.Tensor, w, b *autograd.Variable) *tensor.Tensor {
	y := tensor.MatMul(x, w.Value)
	if b != nil {
		tensor.AddRowBroadcastInPlace(y, b.Value)
	}
	if s := x.Shape(); len(s) == 3 {
		y.SetShape(s[0], s[1], y.Dim(1))
	}
	return v.own(y)
}

// addGELU is autograd.AddGELU's value, activated in place: no backward
// will ask for the pre-activation.
func (v *values) addGELU(a, b *tensor.Tensor) *tensor.Tensor {
	y := tensor.Add(a, b)
	tensor.GELUInto(y, y)
	return v.own(y)
}

func (v *values) meanSeq(x *tensor.Tensor) *tensor.Tensor { return v.own(tensor.MeanSeq(x)) }

func (v *values) broadcastSeq(x *tensor.Tensor, seq int) *tensor.Tensor {
	return v.own(tensor.BroadcastSeq(x, seq))
}

// flatten re-views x in place: it is always a tensor this evaluator made.
func (v *values) flatten(x *tensor.Tensor) *tensor.Tensor {
	s := x.Shape()
	x.SetShape(s[0]*s[1], s[2])
	return x
}
