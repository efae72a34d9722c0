package autograd

import (
	"math"

	"pac/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy between row-wise
// softmax(logits) and integer labels. logits is viewed as [N, C] with C
// the last dimension; len(labels) must equal N. The op is fused for
// numerical stability: backward is (softmax - onehot)/N.
func SoftmaxCrossEntropy(logits *Variable, labels []int) *Variable {
	rows, cols := tensor.Rows(logits.Value)
	if len(labels) != rows {
		panic("autograd: SoftmaxCrossEntropy label count mismatch")
	}
	logp := tensor.LogSoftmax(logits.Value)
	var loss float64
	for r, y := range labels {
		if y < 0 || y >= cols {
			panic("autograd: label out of range")
		}
		loss -= float64(logp.Data[r*cols+y])
	}
	loss /= float64(rows)
	val := tensor.New(1)
	val.Data[0] = float32(loss)
	out := newOp1(val, backSoftmaxCrossEntropy, logits)
	out.auxT = logp
	out.auxIs = append([]int(nil), labels...)
	return out
}

func backSoftmaxCrossEntropy(out *Variable) {
	logits := out.parents[0]
	logp := out.auxT
	_, cols := tensor.Rows(logits.Value)
	scale := out.Grad.Data[0] / float32(len(out.auxIs))
	g := tensor.New(logits.Value.Shape()...)
	for r, y := range out.auxIs {
		base := r * cols
		for c := 0; c < cols; c++ {
			p := float32(math.Exp(float64(logp.Data[base+c])))
			g.Data[base+c] = p * scale
		}
		g.Data[base+y] -= scale
	}
	logits.accPut(g)
	tensor.PutTensor(out.auxT)
	out.auxT = nil
}

// MSE computes the mean squared error between pred and a constant
// target. If target is pool-backed, graph teardown returns it to the
// pool; caller-owned (FromSlice) targets are left untouched.
func MSE(pred *Variable, target *tensor.Tensor) *Variable {
	if !tensor.SameShape(pred.Value, target) {
		panic("autograd: MSE shape mismatch")
	}
	n := float64(pred.Value.Numel())
	var loss float64
	for i := range pred.Value.Data {
		d := float64(pred.Value.Data[i] - target.Data[i])
		loss += d * d
	}
	loss /= n
	val := tensor.New(1)
	val.Data[0] = float32(loss)
	out := newOp1(val, backMSE, pred)
	out.auxT = target
	return out
}

func backMSE(out *Variable) {
	pred := out.parents[0]
	target := out.auxT
	scale := out.Grad.Data[0] * 2 / float32(pred.Value.Numel())
	g := tensor.New(pred.Value.Shape()...)
	for i := range g.Data {
		g.Data[i] = scale * (pred.Value.Data[i] - target.Data[i])
	}
	pred.accPut(g)
}
