package nn

import (
	"math"

	"pac/internal/autograd"
	"pac/internal/tensor"
)

// MultiHeadAttention implements scaled dot-product attention with
// per-head projections. The same module serves self-attention
// (query == context) and cross-attention (decoder query over encoder
// context).
type MultiHeadAttention struct {
	Q, K, V, O *Linear
	Heads      int
	dim        int
}

// NewMultiHeadAttention returns an attention block over width dim split
// into heads.
func NewMultiHeadAttention(dim, heads int, rng *tensor.RNG) *MultiHeadAttention {
	if dim%heads != 0 {
		panic("nn: attention dim must divide heads")
	}
	return &MultiHeadAttention{
		Q:     NewLinear(dim, dim, rng),
		K:     NewLinear(dim, dim, rng),
		V:     NewLinear(dim, dim, rng),
		O:     NewLinear(dim, dim, rng),
		Heads: heads,
		dim:   dim,
	}
}

// Forward computes attention of query over context. query is
// [batch, qLen, dim]; context is [batch, kLen, dim]. mask, if non-nil,
// is an additive [batch*heads, qLen, kLen] tensor (0 = attend,
// -1e9 = blocked) applied to the raw scores.
func (m *MultiHeadAttention) Forward(query, context *autograd.Variable, mask *tensor.Tensor) *autograd.Variable {
	q := autograd.SplitHeads(m.Q.Forward(query), m.Heads)   // [b*h, qLen, dh]
	k := autograd.SplitHeads(m.K.Forward(context), m.Heads) // [b*h, kLen, dh]
	v := autograd.SplitHeads(m.V.Forward(context), m.Heads)

	dh := m.dim / m.Heads
	// Fused score path: Q·Kᵀ/√dh in one kernel, mask and softmax applied
	// in place (raw scores are consumed only by the softmax).
	scores := autograd.BatchMatMulTScaled(q, k, float32(1/math.Sqrt(float64(dh))))
	if mask != nil {
		scores = autograd.AddConstInPlace(scores, mask)
	}
	probs := autograd.SoftmaxInPlace(scores)
	ctx := autograd.BatchMatMul(probs, v) // [b*h, qLen, dh]
	return m.O.Forward(autograd.MergeHeads(ctx, m.Heads))
}

// QuantizeFrozen quantizes the four projections when frozen, reporting
// how many now carry int8 forms.
func (m *MultiHeadAttention) QuantizeFrozen() int {
	n := 0
	for _, l := range []*Linear{m.Q, m.K, m.V, m.O} {
		if l.QuantizeFrozen() {
			n++
		}
	}
	return n
}

// Params implements Module.
func (m *MultiHeadAttention) Params() []*autograd.Variable {
	out := append(m.Q.Params(), m.K.Params()...)
	out = append(out, m.V.Params()...)
	return append(out, m.O.Params()...)
}

const maskNegInf = float32(-1e9)

// CausalMask returns an additive mask of shape [batch*heads, seq, seq]
// blocking attention to future positions.
func CausalMask(batch, heads, seq int) *tensor.Tensor {
	m := tensor.New(batch*heads, seq, seq)
	for b := 0; b < batch*heads; b++ {
		for i := 0; i < seq; i++ {
			for j := i + 1; j < seq; j++ {
				m.Data[(b*seq+i)*seq+j] = maskNegInf
			}
		}
	}
	return m
}

// PaddingMask returns an additive mask of shape
// [batch*heads, qLen, kLen] blocking attention to context positions at or
// beyond each sequence's valid length. lens[b] gives the valid length of
// batch element b.
func PaddingMask(lens []int, heads, qLen, kLen int) *tensor.Tensor {
	batch := len(lens)
	m := tensor.New(batch*heads, qLen, kLen)
	for b := 0; b < batch; b++ {
		valid := lens[b]
		if valid > kLen {
			valid = kLen
		}
		for h := 0; h < heads; h++ {
			base := (b*heads + h) * qLen * kLen
			for i := 0; i < qLen; i++ {
				for j := valid; j < kLen; j++ {
					m.Data[base+i*kLen+j] = maskNegInf
				}
			}
		}
	}
	return m
}
