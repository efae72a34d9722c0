package parallel

import (
	"context"
	"slices"
	"time"

	"pac/internal/autograd"
	"pac/internal/data"
	"pac/internal/health"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/telemetry"
	"pac/internal/tensor"
	"pac/internal/train"
)

// DPGroup trains identical Parallel Adapters replicas with synchronous
// data parallelism: each device runs forward/backward on its batch
// shard, gradients are summed with a ring AllReduce (weighted so the
// result equals the single-device gradient of the full batch), and every
// replica applies the same optimizer step, keeping weights in lockstep
// without ever shipping them.
//
// With PAC this is the engine of cache-enabled epochs (paper §5.2):
// replicas are fed from local cache shards, so a step touches no
// backbone weights at all.
type DPGroup struct {
	Techs      []*peft.Parallel
	Opts       []train.Optimizer
	Endpoints  []Transport
	Regression bool

	// StepTimeout bounds one synchronous step in StepCtx; a rank that
	// produces nothing within it is declared dead (RankFailedError).
	// Zero means no deadline.
	StepTimeout time.Duration
	// Retry is the transient-fault retry policy for the gradient
	// collective; zero value uses DefaultRetry.
	Retry RetryPolicy

	// Forward overrides the per-replica forward pass; nil uses
	// Techs[r].Forward. Cache-enabled training injects the
	// ForwardFromTaps path here. The rank step ends with the result's
	// Release, so its taps go back to the pool with the graph.
	Forward func(rank int, b *data.Batch, trainMode bool) *peft.Result

	// OnStep, when non-nil, observes every completed training step:
	// (epoch, step) where step is the 0-based batch index just finished.
	// Called on the epoch-loop goroutine between steps — a consistent
	// point to capture resume state.
	OnStep func(epoch, step int)

	// Trace, when non-nil, records per-rank step spans as Chrome trace
	// events on process TracePID (telemetry.PidDP by convention); the
	// thread id is the replica rank.
	Trace    *telemetry.Tracer
	TracePID int

	// Health, when non-nil, receives one StepStats per rank per step
	// (compute seconds before the collective, gradient bytes reduced)
	// plus a whole-step sample (Lane/Stage/Rank all -1).
	Health health.Sink

	// flat[r] is rank r's flat gradient, the buffer its all-reduce runs
	// in; StepCtx sizes it before the ranks start and keeps it.
	flat [][]float32
}

// NewDPGroup builds a group over n fresh replicas created by factory
// (called once per rank; must produce identically initialized
// replicas) and a chan-based fabric.
func NewDPGroup(n int, factory func(rank int) (*peft.Parallel, train.Optimizer)) *DPGroup {
	g := &DPGroup{Endpoints: NewChanNetwork(n).Endpoints()}
	for r := 0; r < n; r++ {
		tech, opt := factory(r)
		g.Techs = append(g.Techs, tech)
		g.Opts = append(g.Opts, opt)
	}
	return g
}

// Size returns the replica count.
func (g *DPGroup) Size() int { return len(g.Techs) }

// StepCtx trains one mini-batch: shards it across replicas, runs them
// concurrently, synchronizes gradients, and steps every optimizer.
// Returns the global mean loss. If a rank dies mid-step (crash fault,
// cut link), every surviving rank aborts cleanly — no goroutine is
// leaked, nothing hangs — and the step reports a RankFailedError
// identifying the dead rank within the configured StepTimeout.
func (g *DPGroup) StepCtx(ctx context.Context, b *data.Batch) (float64, error) {
	n := g.Size()
	shards := b.Split(n)
	// Replicas beyond the shard count (tiny batches) contribute zero
	// gradients but must still join the collective.
	losses := make([]float64, n)
	params := make([][]*autograd.Variable, n)
	if len(g.flat) != n {
		g.flat = make([][]float32, n)
	}
	for r := range params {
		params[r] = g.Techs[r].Trainable()
		g.flat[r] = gradBuffer(g.flat[r], params[r])
	}
	err := step{engineDP, g.Trace, g.StepTimeout, g.Health}.run(ctx, b, n, func(ctx context.Context, r int) error {
		stepTC, _ := telemetry.TraceFrom(ctx)
		_, end := g.Trace.SpanTC(stepTC, "compute", "step", g.TracePID, r)
		defer end()
		rank0 := time.Now()
		if r < len(shards) && shards[r].Size() > 0 {
			shard := shards[r]
			res := g.forward(r, shard, true)
			loss := train.Loss(res.Logits, shard, g.Regression)
			// Weight the shard gradient by its share of the batch so
			// the AllReduce sum equals the full-batch mean-loss
			// gradient.
			w := float32(shard.Size()) / float32(b.Size())
			autograd.BackwardWithSeed(loss, tensor.FromSlice([]float32{w}, 1))
			losses[r] = float64(loss.Value.Data[0]) * float64(w)
			// The rank's graph, loss value and taps are no longer needed
			// once its gradients are flattened below (leaf grads survive
			// teardown for the optimizer step); return them to the pool
			// even on the abort paths.
			defer res.Release(loss)
		}
		// Compute seconds stop before the collective — the AllReduce
		// barrier waits on the slowest rank, so timing past it would
		// smear a straggler across the whole group.
		computeSec := time.Since(rank0).Seconds()
		if err := allReduceGrads(ctx, g.Endpoints[r], params[r], g.flat[r], g.Retry); err != nil {
			return err
		}
		g.Opts[r].Step()
		if g.Health != nil {
			g.Health.ReportStep(health.StepStats{
				Engine: "dp", Lane: -1, Stage: -1, Rank: r,
				FwdSec: computeSec, StepSec: time.Since(rank0).Seconds(),
				Bytes: int64(4 * len(g.flat[r])),
			})
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	var total float64
	for _, l := range losses {
		total += l
	}
	return total, nil
}

func (g *DPGroup) forward(r int, b *data.Batch, trainMode bool) *peft.Result {
	if g.Forward != nil {
		return g.Forward(r, b, trainMode)
	}
	return g.Techs[r].Forward(b.Enc, b.Dec, b.Lens, trainMode)
}

// TrainEpochFromCtx runs the loader epoch starting at batch index
// start (0 for a fresh epoch), skipping the batches a resumed run
// already completed; returns the mean loss over the batches actually
// executed, aborting on the first step failure or context cancellation.
func (g *DPGroup) TrainEpochFromCtx(ctx context.Context, loader *data.Loader, epoch, start int) (float64, error) {
	return trainEpochFrom(ctx, loader, epoch, start, g.StepCtx, g.OnStep)
}

// gradBuffer returns buf holding exactly the element count of params,
// reusing its storage when it is large enough.
func gradBuffer(buf []float32, params []*autograd.Variable) []float32 {
	n := 0
	for _, p := range params {
		n += p.Value.Numel()
	}
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// allReduceGrads sums params' gradients across t's group in flat, a
// buffer of exactly their element count (gradBuffer), and writes the
// sums back into the gradients.
func allReduceGrads(ctx context.Context, t Transport, params []*autograd.Variable, flat []float32, pol RetryPolicy) error {
	nn.FlattenGrads(flat, params)
	if err := RingAllReduceCtx(ctx, t, flat, pol); err != nil {
		return err
	}
	nn.UnflattenGrads(params, flat)
	return nil
}

// InSync reports whether all replicas hold bitwise-identical trainable
// parameters — the data-parallel invariant.
func (g *DPGroup) InSync() bool {
	ref := nn.FlattenParams(g.Techs[0].Trainable())
	for r := 1; r < g.Size(); r++ {
		if !slices.Equal(ref, nn.FlattenParams(g.Techs[r].Trainable())) {
			return false
		}
	}
	return true
}
