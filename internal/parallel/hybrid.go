package parallel

import (
	"context"
	"slices"
	"time"

	"pac/internal/autograd"
	"pac/internal/data"
	"pac/internal/health"
	"pac/internal/nn"
	"pac/internal/telemetry"
)

// HybridEngine is PAC's hybrid data+pipeline parallelism (paper §5.1,
// Figure 6): the device pool forms `lanes` identical pipelines (the
// intra-stage data-parallel replicas), a mini-batch is sharded across
// lanes, each lane runs the 1F1B schedule on its shard, and the
// trainable gradients of each stage are AllReduced across lanes before
// the per-stage optimizer step — exactly the "AR" boxes in the paper's
// Figure 6(b). Because the backbone is frozen under Parallel Adapters,
// that AllReduce only ships the lightweight side modules.
type HybridEngine struct {
	Lanes []*PipelineEngine

	// StepTimeout bounds one global mini-batch in StepCtx, every lane of
	// it. Zero means no deadline.
	StepTimeout time.Duration
	// Retry is the transient-fault policy for the cross-lane gradient
	// collective; zero value uses DefaultRetry.
	Retry RetryPolicy
	// OnStep, when non-nil, observes every completed training step:
	// (epoch, step) where step is the 0-based batch index just finished.
	// Called on the epoch-loop goroutine between steps — a consistent
	// point to capture resume state.
	OnStep func(epoch, step int)

	// Trace, when non-nil, records whole-step spans on the orchestrator
	// track (telemetry.PidOrch). Lane engines carry their own Trace/
	// TracePID for the per-stage micro-batch spans.
	Trace *telemetry.Tracer

	// Health, when non-nil, receives one whole-step StepStats per global
	// mini-batch (Lane/Stage/Rank all -1). Lane engines carry their own
	// Health/HealthLane for the per-stage samples.
	Health health.Sink

	// cross[stage][lane] is the lane-to-lane fabric endpoint
	// synchronizing that stage's gradients.
	cross [][]Transport
	// flat[stage][lane] is that stage's flat gradient on that lane, the
	// buffer its cross-lane all-reduce runs in; StepCtx sizes it before
	// the lanes start and keeps it.
	flat [][][]float32
}

// NewHybrid assembles a hybrid engine. factory must build identically
// initialized (model, side network) replicas per lane; per-stage SGD
// optimizers with the given lr are attached. stages × lanes is the
// device count the engine emulates.
func NewHybrid(lanes, stages, micro int, lr float32, factory func(lane int) *PipelineEngine) *HybridEngine {
	h := &HybridEngine{}
	for s := 0; s < stages; s++ {
		h.cross = append(h.cross, NewChanNetwork(lanes).Endpoints())
		h.flat = append(h.flat, make([][]float32, lanes))
	}
	for l := 0; l < lanes; l++ {
		e := factory(l)
		lane := l
		e.SyncGrads = func(ctx context.Context, stage int, params []*autograd.Variable) error {
			return allReduceGrads(ctx, h.cross[stage][lane], params, h.flat[stage][lane], h.Retry)
		}
		h.Lanes = append(h.Lanes, e)
	}
	return h
}

// FabricID names one of the hybrid engine's fabrics for WrapTransports:
// Kind "pipe" is lane Index's inter-stage pipeline fabric (ranks are
// stages), Kind "cross" is stage Index's lane-to-lane gradient fabric
// (ranks are lanes).
type FabricID struct {
	Kind  string
	Index int
}

// WrapTransports rewires every fabric of the engine — each lane's
// pipeline endpoints and each stage's cross-lane endpoints — through
// wrap. Used to interpose WrapFaulty decorators for fault-injection
// runs; each fabric gets its own wrap call (and thus its own fault
// schedule state), identified by id so a caller can target one fabric.
func (h *HybridEngine) WrapTransports(wrap func(id FabricID, eps []Transport) []Transport) {
	for l, lane := range h.Lanes {
		lane.Endpoints = wrap(FabricID{Kind: "pipe", Index: l}, lane.Endpoints)
	}
	for s := range h.cross {
		h.cross[s] = wrap(FabricID{Kind: "cross", Index: s}, h.cross[s])
	}
}

// StepCtx trains one global mini-batch and returns its mean loss. A
// dead device anywhere — any stage of any lane, or a cut cross-lane
// link — aborts every lane cleanly and surfaces a RankFailedError.
func (h *HybridEngine) StepCtx(ctx context.Context, b *data.Batch) (float64, error) {
	shards := b.Split(len(h.Lanes))
	losses := make([]float64, len(h.Lanes))
	for s, lanes := range h.flat {
		for l, lane := range h.Lanes {
			lanes[l] = gradBuffer(lanes[l], lane.StageParams(s))
		}
	}
	// The step's root span travels in ctx to every lane, so each
	// micro-batch's F/B chain links back to it.
	err := step{engineHybrid, h.Trace, h.StepTimeout, h.Health}.run(ctx, b, len(h.Lanes), func(ctx context.Context, l int) error {
		// A lane beyond the shard count (a trailing batch smaller than
		// the lane count) runs no micro-batch, but like a surplus DPGroup
		// replica it still joins every stage's cross-lane AllReduce with
		// zero gradients and steps its optimizers, so lanes stay in sync.
		shard := &data.Batch{}
		if l < len(shards) {
			shard = shards[l]
		}
		lane := h.Lanes[l]
		err := fanOut(ctx, lane.Stages(), lane.schedule(shard, b.Size(), &losses[l]))
		// Attribute the failure to this lane so orchestration can map
		// (lane, stage rank) back to a concrete device.
		if rf, ok := AsRankFailed(err); ok && rf.Lane < 0 {
			err = &RankFailedError{Rank: rf.Rank, Lane: l, Op: rf.Op, Err: rf.Err}
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	var total float64
	for _, v := range losses {
		total += v
	}
	return total, nil
}

// TrainEpochFromCtx runs the loader epoch starting at batch index
// start (0 for a fresh epoch), skipping the batches a resumed run
// already completed; returns the mean loss over the batches actually
// executed, aborting on the first step failure or context cancellation.
func (h *HybridEngine) TrainEpochFromCtx(ctx context.Context, loader *data.Loader, epoch, start int) (float64, error) {
	return trainEpochFrom(ctx, loader, epoch, start, h.StepCtx, h.OnStep)
}

// InSync reports whether all lanes hold identical trainable parameters.
func (h *HybridEngine) InSync() bool {
	ref := nn.FlattenParams(h.Lanes[0].AllStageParams())
	for _, lane := range h.Lanes[1:] {
		if !slices.Equal(ref, nn.FlattenParams(lane.AllStageParams())) {
			return false
		}
	}
	return true
}
