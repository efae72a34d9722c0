// Package peft implements the four fine-tuning techniques the paper
// compares: full-model fine-tuning, Houlsby Adapters, LoRA, and the
// paper's contribution, Parallel Adapters (a trainable side network fed
// by frozen-backbone tap activations, with no backward pass through the
// backbone).
package peft

import (
	"fmt"

	"pac/internal/autograd"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/tensor"
)

// Kind identifies a fine-tuning technique.
type Kind int

// Technique kinds in paper order.
const (
	Full Kind = iota
	Adapters
	LoRA
	ParallelAdapters
)

func (k Kind) String() string {
	switch k {
	case Full:
		return "Full"
	case Adapters:
		return "Adapters"
	case LoRA:
		return "LoRA"
	case ParallelAdapters:
		return "ParallelAdapters"
	}
	return "unknown"
}

// AllKinds lists the techniques in paper order.
func AllKinds() []Kind { return []Kind{Full, Adapters, LoRA, ParallelAdapters} }

// Result is the output of a technique's forward pass.
type Result struct {
	Logits *autograd.Variable
	// Taps holds the frozen backbone's per-layer activations for
	// ParallelAdapters (the values the activation cache stores); nil for
	// in-backbone techniques.
	Taps []*tensor.Tensor
}

// Release ends the forward pass that produced r. root is the variable
// the caller ended on — r.Logits, or a loss built on them — and
// everything wanted from it (the picked tokens, the loss scalar) must
// have been read: the graph under root, root's own value and the tap
// buffers all go back to the tensor pool. This is the one place that
// knows which buffers a forward leaves with its caller; a caller that
// keeps the taps (a cache fill) clears r.Taps first.
func (r *Result) Release(root *autograd.Variable) {
	autograd.Release(root)
	tensor.PutTensor(root.Value)
	for _, t := range r.Taps {
		tensor.PutTensor(t)
	}
}

// Technique is a fine-tuning strategy bound to a model.
type Technique interface {
	Kind() Kind
	// Trainable returns the parameters the optimizer updates, in a
	// deterministic order shared by all replicas.
	Trainable() []*autograd.Variable
	// Forward computes logits for a batch.
	Forward(enc, dec [][]int, lens []int, train bool) *Result
}

// Options configures technique construction.
type Options struct {
	Reduction int   // Parallel Adapters / Adapters bottleneck factor k (paper: 8)
	LoRARank  int   // LoRA rank (default 32, matching the paper's 9M on T5-Large)
	Seed      int64 // initialization seed for the added modules
}

func (o Options) withDefaults() Options {
	if o.Reduction == 0 {
		o.Reduction = 8
	}
	if o.LoRARank == 0 {
		o.LoRARank = 32
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
	return o
}

// EffectiveReduction returns the bottleneck reduction factor with the
// paper default (8) applied.
func (o Options) EffectiveReduction() int { return o.withDefaults().Reduction }

// EffectiveLoRARank returns the LoRA rank with the default (32) applied.
func (o Options) EffectiveLoRARank() int { return o.withDefaults().LoRARank }

// New attaches a technique to m and returns it. Full trains m, and
// Adapters and LoRA extend it, so attach one of them per model instance.
// Parallel Adapters only freeze m, so any number of Parallel side
// networks may attach to one frozen backbone.
func New(kind Kind, m *model.Model, opts Options) Technique {
	opts = opts.withDefaults()
	switch kind {
	case Full:
		return newFull(m)
	case Adapters:
		return newAdapters(m, opts)
	case LoRA:
		return newLoRA(m, opts)
	case ParallelAdapters:
		return NewParallel(m, opts)
	}
	panic(fmt.Sprintf("peft: unknown kind %d", kind))
}

// fullTechnique trains every backbone parameter.
type fullTechnique struct{ m *model.Model }

func newFull(m *model.Model) Technique { return &fullTechnique{m: m} }

func (t *fullTechnique) Kind() Kind { return Full }

func (t *fullTechnique) Trainable() []*autograd.Variable { return nn.TrainableParams(t.m) }

func (t *fullTechnique) Forward(enc, dec [][]int, lens []int, train bool) *Result {
	s := t.m.Forward(enc, dec, lens, train)
	return &Result{Logits: s.Logits}
}

// adaptersTechnique freezes the backbone and inserts Houlsby bottlenecks
// at the end of every transformer layer.
type adaptersTechnique struct {
	m       *model.Model
	modules []*nn.Bottleneck
}

func newAdapters(m *model.Model, opts Options) Technique {
	m.Freeze()
	rng := tensor.NewRNG(opts.Seed)
	r := m.Cfg.Hidden / opts.Reduction
	if r < 1 {
		r = 1
	}
	t := &adaptersTechnique{m: m}
	for _, b := range m.Blocks {
		switch l := b.(type) {
		case *model.EncLayer:
			l.Post = nn.NewBottleneck(m.Cfg.Hidden, r, rng.Split())
			t.modules = append(t.modules, l.Post)
		case *model.DecLayer:
			l.Post = nn.NewBottleneck(m.Cfg.Hidden, r, rng.Split())
			t.modules = append(t.modules, l.Post)
		}
	}
	return t
}

func (t *adaptersTechnique) Kind() Kind { return Adapters }

func (t *adaptersTechnique) Trainable() []*autograd.Variable {
	var out []*autograd.Variable
	for _, a := range t.modules {
		out = append(out, a.Params()...)
	}
	return out
}

func (t *adaptersTechnique) Forward(enc, dec [][]int, lens []int, train bool) *Result {
	s := t.m.Forward(enc, dec, lens, train)
	return &Result{Logits: s.Logits}
}

// loraTechnique freezes the backbone and attaches low-rank bypasses to
// the Q and V projections of every attention block.
type loraTechnique struct {
	m      *model.Model
	params []*autograd.Variable
}

func newLoRA(m *model.Model, opts Options) Technique {
	m.Freeze()
	rng := tensor.NewRNG(opts.Seed)
	rank := opts.LoRARank
	if rank > m.Cfg.Hidden {
		rank = m.Cfg.Hidden
	}
	t := &loraTechnique{m: m}
	attach := func(attn *nn.MultiHeadAttention) {
		attn.Q.AttachLoRA(rank, 1, rng.Split())
		attn.V.AttachLoRA(rank, 1, rng.Split())
		t.params = append(t.params, attn.Q.LoraA, attn.Q.LoraB, attn.V.LoraA, attn.V.LoraB)
	}
	for _, b := range m.Blocks {
		switch l := b.(type) {
		case *model.EncLayer:
			attach(l.Attn)
		case *model.DecLayer:
			attach(l.SelfAttn)
			attach(l.CrossAttn)
		}
	}
	return t
}

func (t *loraTechnique) Kind() Kind { return LoRA }

func (t *loraTechnique) Trainable() []*autograd.Variable { return t.params }

func (t *loraTechnique) Forward(enc, dec [][]int, lens []int, train bool) *Result {
	s := t.m.Forward(enc, dec, lens, train)
	return &Result{Logits: s.Logits}
}

// TrainableParamCount returns the analytic trainable-parameter count of
// a technique on a model shape, used by the cost model (paper Table 1's
// "Trainable Parameters" column).
func TrainableParamCount(kind Kind, cfg model.Config, opts Options) int64 {
	opts = opts.withDefaults()
	h := int64(cfg.Hidden)
	l := int64(cfg.Layers)
	switch kind {
	case Full:
		return cfg.ParamCount()
	case Adapters:
		r := h / int64(opts.Reduction)
		return 2 * l * 2 * h * r // 2L adapters × (down + up)
	case LoRA:
		rank := int64(opts.LoRARank)
		// Q,V bypasses: encoder 1 attention, decoder 2 attentions per layer.
		return l * 3 * 2 * 2 * h * rank
	case ParallelAdapters:
		r := h / int64(opts.Reduction)
		perTap := 2*h + h*r + r*r // LN + down-projection + recurrent mix
		return 2*l*perTap + r*int64(cfg.NumClasses) + int64(cfg.NumClasses)
	}
	panic("peft: unknown kind")
}
