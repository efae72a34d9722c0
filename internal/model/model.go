package model

import (
	"slices"

	"pac/internal/autograd"
	"pac/internal/nn"
	"pac/internal/tensor"
)

// Model is the full encoder-decoder LLM as an ordered block list.
type Model struct {
	Cfg    Config
	Blocks []Block

	dropRNG *tensor.RNG
}

// New instantiates the model's weights from cfg.Seed. Only call with
// trainable-sized configs (Tiny/Small or custom); the paper-scale
// configs are meant for analytic use.
func New(cfg Config) *Model {
	rng := tensor.NewRNG(cfg.Seed)
	// Encoder and decoder keep separate token tables so no parameter is
	// shared across pipeline stages (a shared table would make two stage
	// devices accumulate into one gradient buffer).
	encTok := nn.NewEmbedding(cfg.Vocab, cfg.Hidden, rng.Split())
	decTok := nn.NewEmbedding(cfg.Vocab, cfg.Hidden, rng.Split())

	blocks := make([]Block, 0, cfg.TotalBlocks())
	blocks = append(blocks, &EncEmbed{Tok: encTok, Pos: nn.NewEmbedding(cfg.MaxSeq, cfg.Hidden, rng.Split()), cfg: cfg})
	for i := 0; i < cfg.Layers; i++ {
		blocks = append(blocks, &EncLayer{
			LN1:  nn.NewLayerNorm(cfg.Hidden),
			LN2:  nn.NewLayerNorm(cfg.Hidden),
			Attn: nn.NewMultiHeadAttention(cfg.Hidden, cfg.Heads, rng.Split()),
			FF:   nn.NewFeedForward(cfg.Hidden, cfg.FFDim, rng.Split()),
			cfg:  cfg,
		})
	}
	blocks = append(blocks, &DecEmbed{Tok: decTok, Pos: nn.NewEmbedding(cfg.MaxSeq, cfg.Hidden, rng.Split()), cfg: cfg})
	for i := 0; i < cfg.Layers; i++ {
		blocks = append(blocks, &DecLayer{
			LN1:       nn.NewLayerNorm(cfg.Hidden),
			LN2:       nn.NewLayerNorm(cfg.Hidden),
			LN3:       nn.NewLayerNorm(cfg.Hidden),
			SelfAttn:  nn.NewMultiHeadAttention(cfg.Hidden, cfg.Heads, rng.Split()),
			CrossAttn: nn.NewMultiHeadAttention(cfg.Hidden, cfg.Heads, rng.Split()),
			FF:        nn.NewFeedForward(cfg.Hidden, cfg.FFDim, rng.Split()),
			cfg:       cfg,
		})
	}
	if cfg.LM {
		blocks = append(blocks, &LMHead{LN: nn.NewLayerNorm(cfg.Hidden), Proj: nn.NewLinear(cfg.Hidden, cfg.NumClasses, rng.Split())})
	} else {
		blocks = append(blocks, &Head{LN: nn.NewLayerNorm(cfg.Hidden), Proj: nn.NewLinear(cfg.Hidden, cfg.NumClasses, rng.Split())})
	}

	return &Model{Cfg: cfg, Blocks: blocks, dropRNG: rng.Split()}
}

// Params implements nn.Module, enumerating block parameters in order.
func (m *Model) Params() []*autograd.Variable {
	var out []*autograd.Variable
	for _, b := range m.Blocks {
		out = append(out, b.Params()...)
	}
	return out
}

// Forward runs the whole model over a batch of encoder token ids.
// decIDs typically holds a single BOS token per row. Returns the
// terminal state (with Logits and Taps populated).
func (m *Model) Forward(encIDs, decIDs [][]int, encLens []int, train bool) *State {
	s := &State{EncIDs: encIDs, DecIDs: decIDs, EncLens: encLens, Train: train, RNG: m.dropRNG}
	for _, b := range m.Blocks {
		b.forward(s)
	}
	return s
}

// FrozenForward is the frozen backbone's one walk: it runs blocks
// [start, end) over s, skipping the head (the side head replaces it),
// and returns their taps in pooled buffers the caller owns. visit, if
// non-nil, gets each tap as it is made. After each block its graph goes
// back to the pool, keeping the taps and s.Enc/s.Dec, and so does a
// state it supersedes that is not a tap (leaves decoded from a frame
// included); the final states are the caller's. s.Taps is left nil.
func (m *Model) FrozenForward(s *State, start, end int, visit func(ti int, tap *tensor.Tensor)) []*tensor.Tensor {
	var taps []*tensor.Tensor
	for bi := start; bi < end; bi++ {
		b := m.Blocks[bi]
		if b.Kind() == KindHead {
			continue
		}
		enc, dec := s.Enc, s.Dec
		b.forward(s)
		if ti := m.TapIndex(bi); ti >= 0 {
			tap := s.Taps[len(s.Taps)-1].Value
			taps = append(taps, tap)
			if visit != nil {
				visit(ti, tap)
			}
		}
		autograd.ReleaseExcept(taps, s.Enc, s.Dec)
		for _, old := range [2]*autograd.Variable{enc, dec} {
			if old != nil && old != s.Enc && old != s.Dec && !slices.Contains(taps, old.Value) {
				tensor.PutTensor(old.Value)
			}
		}
	}
	s.Taps = nil
	return taps
}

// LayerBlocks returns the indices of blocks that are transformer layers
// (the blocks that produce taps), in tap order.
func (m *Model) LayerBlocks() []int {
	var out []int
	for i, b := range m.Blocks {
		k := b.Kind()
		if k == KindEncLayer || k == KindDecLayer {
			out = append(out, i)
		}
	}
	return out
}

// NumTaps returns how many tap activations a forward pass produces.
func (m *Model) NumTaps() int { return 2 * m.Cfg.Layers }

// Freeze disables gradients on every model parameter (the PAC backbone
// freeze, paper Step 3).
func (m *Model) Freeze() { nn.Freeze(m) }

// QuantizeBackbone builds int8 forms of every frozen projection weight
// (attention Q/K/V/O, feed-forward up/down, the head projection) for
// quantized compute backends, returning how many projections were
// quantized. Call after Freeze (peft techniques freeze on construction)
// and after any checkpoint load that replaces backbone weights — scales
// are computed from the weights as they are now, valid forever because
// the backbone never trains. Trainable or LoRA-carrying projections are
// skipped, so adapters and all gradient math stay fp32.
func (m *Model) QuantizeBackbone() int {
	n := 0
	for _, b := range m.Blocks {
		switch l := b.(type) {
		case *EncLayer:
			n += l.Attn.QuantizeFrozen() + l.FF.QuantizeFrozen()
		case *DecLayer:
			n += l.SelfAttn.QuantizeFrozen() + l.CrossAttn.QuantizeFrozen() + l.FF.QuantizeFrozen()
		case *Head:
			if l.Proj.QuantizeFrozen() {
				n++
			}
		case *LMHead:
			if l.Proj.QuantizeFrozen() {
				n++
			}
		}
	}
	return n
}

// TapIndex returns the tap number produced by block bi (encoder layer j
// → j, decoder layer j → Layers+j), or -1 for non-layer blocks.
func (m *Model) TapIndex(bi int) int {
	switch m.Blocks[bi].Kind() {
	case KindEncLayer:
		return bi - 1 // blocks: [EncEmbed, EncLayer×L, ...]
	case KindDecLayer:
		return m.Cfg.Layers + (bi - (m.Cfg.Layers + 2))
	}
	return -1
}
