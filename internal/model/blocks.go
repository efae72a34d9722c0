package model

import (
	"pac/internal/autograd"
	"pac/internal/nn"
	"pac/internal/tensor"
)

// State is the activation bundle threaded through the model's blocks.
// Pipeline stages ship the Enc/Dec tensors between devices; everything
// else (token ids, masks) is cheap metadata replicated to every stage.
type State struct {
	// Inputs.
	EncIDs  [][]int // [batch][seq] encoder token ids
	DecIDs  [][]int // [batch][decSeq] decoder input ids (BOS-prefixed)
	EncLens []int   // valid lengths for padding masks
	Train   bool
	RNG     *tensor.RNG // dropout source; may be nil when Train is false

	// Flowing activations.
	Enc *autograd.Variable // [batch, seq, hidden]
	Dec *autograd.Variable // [batch, decSeq, hidden]

	// Taps: output activation of each transformer layer, in block order
	// (encoder layers then decoder layers). These are the b_i inputs of
	// Parallel Adapters and the values stored in the activation cache.
	Taps []*autograd.Variable

	// Output.
	Logits *autograd.Variable // [batch, numClasses]
}

// Block is one pipeline-partitionable unit of the model.
type Block interface {
	nn.Module
	// Forward advances the state through this block.
	Forward(s *State)
	// Kind identifies the block for planners and debuggers.
	Kind() BlockKind
}

// BlockKind enumerates block types.
type BlockKind int

// Block kinds in model order.
const (
	KindEncEmbed BlockKind = iota
	KindEncLayer
	KindDecEmbed
	KindDecLayer
	KindHead
)

func (k BlockKind) String() string {
	switch k {
	case KindEncEmbed:
		return "enc-embed"
	case KindEncLayer:
		return "enc-layer"
	case KindDecEmbed:
		return "dec-embed"
	case KindDecLayer:
		return "dec-layer"
	case KindHead:
		return "head"
	}
	return "unknown"
}

// EncEmbed embeds encoder token ids and adds learned positions.
type EncEmbed struct {
	Tok *nn.Embedding
	Pos *nn.Embedding
	cfg Config
}

// Forward implements Block.
func (b *EncEmbed) Forward(s *State) {
	seq := len(s.EncIDs[0])
	posIDs := make([][]int, len(s.EncIDs))
	for i := range posIDs {
		row := make([]int, seq)
		for j := range row {
			row[j] = j
		}
		posIDs[i] = row
	}
	s.Enc = autograd.Add(b.Tok.Forward(s.EncIDs), b.Pos.Forward(posIDs))
	s.Enc = autograd.Dropout(s.Enc, b.cfg.Dropout, s.Train, s.RNG)
}

// Params implements Module.
func (b *EncEmbed) Params() []*autograd.Variable {
	return append(b.Tok.Params(), b.Pos.Params()...)
}

// Kind implements Block.
func (b *EncEmbed) Kind() BlockKind { return KindEncEmbed }

// EncLayer is a pre-norm transformer encoder layer. Post, when non-nil,
// is a Houlsby bottleneck adapter applied at the end of the layer
// (in-backbone PEFT, paper Figure 2).
type EncLayer struct {
	LN1, LN2 *nn.LayerNorm
	Attn     *nn.MultiHeadAttention
	FF       *nn.FeedForward
	Post     *nn.Bottleneck
	cfg      Config
}

// Forward implements Block.
func (b *EncLayer) Forward(s *State) {
	x := s.Enc
	var mask *tensor.Tensor
	if s.EncLens != nil {
		seq := x.Value.Dim(1)
		mask = nn.PaddingMask(s.EncLens, b.cfg.Heads, seq, seq)
	}
	h := b.Attn.Forward(b.LN1.Forward(x), b.LN1.Forward(x), mask)
	h = autograd.Dropout(h, b.cfg.Dropout, s.Train, s.RNG)
	x = autograd.Add(x, h)
	h = b.FF.Forward(b.LN2.Forward(x))
	h = autograd.Dropout(h, b.cfg.Dropout, s.Train, s.RNG)
	x = autograd.Add(x, h)
	if b.Post != nil {
		x = b.Post.Forward(x)
	}
	s.Enc = x
	s.Taps = append(s.Taps, x)
}

// Params implements Module.
func (b *EncLayer) Params() []*autograd.Variable {
	out := append(b.LN1.Params(), b.Attn.Params()...)
	out = append(out, b.LN2.Params()...)
	out = append(out, b.FF.Params()...)
	if b.Post != nil {
		out = append(out, b.Post.Params()...)
	}
	return out
}

// Kind implements Block.
func (b *EncLayer) Kind() BlockKind { return KindEncLayer }

// DecEmbed embeds decoder input ids (BOS-prefixed targets) with
// positions. The decoder owns its token table: pipeline stages must not
// share parameters.
type DecEmbed struct {
	Tok *nn.Embedding
	Pos *nn.Embedding
	cfg Config
}

// Forward implements Block.
func (b *DecEmbed) Forward(s *State) {
	seq := len(s.DecIDs[0])
	posIDs := make([][]int, len(s.DecIDs))
	for i := range posIDs {
		row := make([]int, seq)
		for j := range row {
			row[j] = j
		}
		posIDs[i] = row
	}
	s.Dec = autograd.Add(b.Tok.Forward(s.DecIDs), b.Pos.Forward(posIDs))
	s.Dec = autograd.Dropout(s.Dec, b.cfg.Dropout, s.Train, s.RNG)
}

// Params implements Module.
func (b *DecEmbed) Params() []*autograd.Variable {
	return append(b.Tok.Params(), b.Pos.Params()...)
}

// Kind implements Block.
func (b *DecEmbed) Kind() BlockKind { return KindDecEmbed }

// DecLayer is a pre-norm transformer decoder layer with causal
// self-attention and cross-attention over the encoder output.
type DecLayer struct {
	LN1, LN2, LN3 *nn.LayerNorm
	SelfAttn      *nn.MultiHeadAttention
	CrossAttn     *nn.MultiHeadAttention
	FF            *nn.FeedForward
	Post          *nn.Bottleneck // optional Houlsby adapter
	cfg           Config
}

// Forward implements Block.
func (b *DecLayer) Forward(s *State) {
	x := s.Dec
	batch, decSeq := x.Value.Dim(0), x.Value.Dim(1)
	causal := nn.CausalMask(batch, b.cfg.Heads, decSeq)
	h := b.SelfAttn.Forward(b.LN1.Forward(x), b.LN1.Forward(x), causal)
	h = autograd.Dropout(h, b.cfg.Dropout, s.Train, s.RNG)
	x = autograd.Add(x, h)

	var crossMask *tensor.Tensor
	if s.EncLens != nil {
		crossMask = nn.PaddingMask(s.EncLens, b.cfg.Heads, decSeq, s.Enc.Value.Dim(1))
	}
	h = b.CrossAttn.Forward(b.LN2.Forward(x), s.Enc, crossMask)
	h = autograd.Dropout(h, b.cfg.Dropout, s.Train, s.RNG)
	x = autograd.Add(x, h)

	h = b.FF.Forward(b.LN3.Forward(x))
	h = autograd.Dropout(h, b.cfg.Dropout, s.Train, s.RNG)
	x = autograd.Add(x, h)
	if b.Post != nil {
		x = b.Post.Forward(x)
	}
	s.Dec = x
	s.Taps = append(s.Taps, x)
}

// Params implements Module.
func (b *DecLayer) Params() []*autograd.Variable {
	out := append(b.LN1.Params(), b.SelfAttn.Params()...)
	out = append(out, b.LN2.Params()...)
	out = append(out, b.CrossAttn.Params()...)
	out = append(out, b.LN3.Params()...)
	out = append(out, b.FF.Params()...)
	if b.Post != nil {
		out = append(out, b.Post.Params()...)
	}
	return out
}

// Kind implements Block.
func (b *DecLayer) Kind() BlockKind { return KindDecLayer }

// LMHead projects every decoder position to vocabulary logits
// [batch·decSeq, vocab] for teacher-forced training and autoregressive
// generation.
type LMHead struct {
	LN   *nn.LayerNorm
	Proj *nn.Linear // hidden → vocab
}

// Forward implements Block.
func (b *LMHead) Forward(s *State) {
	x := b.LN.Forward(s.Dec)
	batch, seq, hidden := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2)
	flat := autograd.Reshape(x, batch*seq, hidden)
	s.Logits = b.Proj.Forward(flat)
}

// Params implements Module.
func (b *LMHead) Params() []*autograd.Variable {
	return append(b.LN.Params(), b.Proj.Params()...)
}

// Kind implements Block.
func (b *LMHead) Kind() BlockKind { return KindHead }

// Head pools the decoder output (first position, which attends over the
// whole input) and projects to class logits.
type Head struct {
	LN   *nn.LayerNorm
	Proj *nn.Linear
}

// Forward implements Block.
func (b *Head) Forward(s *State) {
	x := b.LN.Forward(s.Dec)
	// Take decoder position 0 for every batch element: [batch, hidden].
	batch, _, hidden := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2)
	flat := autograd.Reshape(x, batch*x.Value.Dim(1), hidden)
	var rows []*autograd.Variable
	for i := 0; i < batch; i++ {
		rows = append(rows, autograd.SliceRows(flat, i*x.Value.Dim(1), i*x.Value.Dim(1)+1))
	}
	pooled := autograd.Concat(rows...)
	s.Logits = b.Proj.Forward(pooled)
}

// Params implements Module.
func (b *Head) Params() []*autograd.Variable {
	return append(b.LN.Params(), b.Proj.Params()...)
}

// Kind implements Block.
func (b *Head) Kind() BlockKind { return KindHead }
