package train

import (
	"context"
	"math"

	"pac/internal/autograd"
	"pac/internal/data"
	"pac/internal/peft"
	"pac/internal/tensor"
)

// Loss computes the task loss for a batch given its logits: softmax
// cross-entropy for classification, MSE on a single sigmoid output for
// regression (STS-B targets live in [0,1]).
func Loss(logits *autograd.Variable, b *data.Batch, regression bool) *autograd.Variable {
	if regression {
		pred := autograd.Sigmoid(logits)
		target := tensor.FromSlice(append([]float32(nil), b.Targets...), len(b.Targets), 1)
		return autograd.MSE(pred, target)
	}
	return autograd.SoftmaxCrossEntropy(logits, b.Labels)
}

// Trainer runs single-device fine-tuning of a technique — the
// "Standalone" baseline of the paper and the ground truth the
// distributed engines are checked against.
type Trainer struct {
	Tech       peft.Technique
	Opt        Optimizer
	Regression bool
	ClipNorm   float32 // 0 disables clipping

	// OnStep, when non-nil, observes (epoch, step, loss).
	OnStep func(epoch, step int, loss float64)
}

// TrainEpoch runs one epoch over the loader and returns the mean batch
// loss.
func (t *Trainer) TrainEpoch(loader *data.Loader, epoch int) float64 {
	loss, _ := t.TrainEpochCtx(context.Background(), loader, epoch)
	return loss
}

// TrainEpochCtx runs one epoch over the loader, checking the context
// between batches: training stops cleanly at a batch boundary when ctx
// expires (deadline-bounded fine-tuning on a shared edge device).
// Returns the mean loss over the batches that ran plus the context's
// error, if any.
func (t *Trainer) TrainEpochCtx(ctx context.Context, loader *data.Loader, epoch int) (float64, error) {
	var total float64
	batches := loader.Epoch(epoch)
	ran := 0
	for step, b := range batches {
		if err := ctx.Err(); err != nil {
			if ran == 0 {
				return 0, err
			}
			return total / float64(ran), err
		}
		loss := t.TrainBatch(b)
		total += loss
		ran++
		if t.OnStep != nil {
			t.OnStep(epoch, step, loss)
		}
	}
	if ran == 0 {
		return 0, nil
	}
	return total / float64(ran), nil
}

// TrainBatch runs forward/backward/update on one mini-batch and returns
// its loss.
func (t *Trainer) TrainBatch(b *data.Batch) float64 {
	res := t.Tech.Forward(b.Enc, b.Dec, b.Lens, true)
	loss := Loss(res.Logits, b, t.Regression)
	autograd.Backward(loss)
	if t.ClipNorm > 0 {
		ClipGradNorm(t.Opt.Params(), t.ClipNorm)
	}
	t.Opt.Step()
	v := float64(loss.Value.Data[0])
	// The step is complete: return the graph's tensors, the loss value
	// and any taps to the pool.
	res.Release(loss)
	return v
}

// EvalResult aggregates evaluation metrics.
type EvalResult struct {
	Loss     float64
	Accuracy float64 // classification
	F1       float64 // classification (class 1 positive)
	Pearson  float64 // regression
	Spearman float64 // regression
	N        int
}

// Metric returns the paper's headline metric for the task: mean of
// F1/accuracy for MRPC, Pearson-Spearman mean for STS-B, accuracy
// otherwise.
func (r EvalResult) Metric(task data.Task) float64 {
	switch task {
	case data.MRPC:
		return (r.F1 + r.Accuracy) / 2 * 100
	case data.STSB:
		return (r.Pearson + r.Spearman) / 2 * 100
	default:
		return r.Accuracy * 100
	}
}

// Evaluate runs the technique over a dataset without updating weights.
func Evaluate(tech peft.Technique, ds *data.Dataset, batchSize int) EvalResult {
	loader := data.NewLoader(ds, batchSize, 0)
	var (
		losses  float64
		preds   []int
		labels  []int
		outs    []float64
		targets []float64
		n       int
	)
	for _, b := range loader.Epoch(0) {
		res := tech.Forward(b.Enc, b.Dec, b.Lens, false)
		loss := Loss(res.Logits, b, ds.Regression)
		losses += float64(loss.Value.Data[0]) * float64(b.Size())
		n += b.Size()
		if ds.Regression {
			for i := 0; i < b.Size(); i++ {
				logit := float64(res.Logits.Value.Data[i])
				outs = append(outs, 1/(1+math.Exp(-logit)))
				targets = append(targets, float64(b.Targets[i]))
			}
		} else {
			preds = append(preds, tensor.ArgMaxRows(res.Logits.Value)...)
			labels = append(labels, b.Labels...)
		}
		res.Release(loss)
	}
	out := EvalResult{N: n}
	if n > 0 {
		out.Loss = losses / float64(n)
	}
	if ds.Regression {
		if len(outs) > 1 {
			out.Pearson = Pearson(outs, targets)
			out.Spearman = Spearman(outs, targets)
		}
	} else {
		out.Accuracy = Accuracy(preds, labels)
		out.F1 = F1(preds, labels)
	}
	return out
}
