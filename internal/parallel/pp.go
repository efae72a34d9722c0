package parallel

import (
	"context"
	"fmt"
	"slices"
	"time"

	"pac/internal/autograd"
	"pac/internal/data"
	"pac/internal/health"
	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/telemetry"
	"pac/internal/tensor"
	"pac/internal/train"
)

// bundle is the payload crossing a stage boundary. A forward frame
// carries the frozen backbone's encoder state, its decoder state (once
// the decoder region has started) and the side state; a backward frame
// carries only the side state's gradient. Absent tensors are nil.
type bundle struct {
	Enc, Dec, Side *tensor.Tensor
}

// appendBundle encodes b onto out — stages pass a trace-envelope
// prefix so the frame is built in one buffer. Each of Enc, Dec and
// Side is a presence byte, then (when present) one tensor record.
func appendBundle(out []byte, b bundle) []byte {
	for _, t := range []*tensor.Tensor{b.Enc, b.Dec, b.Side} {
		if t == nil {
			out = append(out, 0)
			continue
		}
		out = tensor.AppendRecord(append(out, 1), t)
	}
	return out
}

func decodeBundle(data []byte) (bundle, error) {
	r := tensor.NewReader(data)
	read := func() *tensor.Tensor {
		if present := r.Bytes(1); present != nil && present[0] != 0 {
			return r.Record()
		}
		return nil
	}
	b := bundle{Enc: read(), Dec: read(), Side: read()}
	if err := r.End(); err != nil {
		return bundle{}, fmt.Errorf("parallel: bundle: %w", err)
	}
	return b, nil
}

// PipelineEngine executes 1F1B pipeline-parallel Parallel Adapters
// fine-tuning over one frozen model partitioned into stages (paper
// §5.1). Each stage runs its blocks and the side adapters of its taps in
// its own goroutine and exchanges boundary bundles over a Transport.
//
// Forward frames carry the backbone's boundary activations and the side
// state; backward frames carry only the r-wide side gradient — the
// paper's gradient highway — because no gradient ever enters the
// backbone.
type PipelineEngine struct {
	Model      *model.Model
	Tech       *peft.Parallel
	Boundaries []int // stage block ranges: stage s = [Boundaries[s], Boundaries[s+1])
	Endpoints  []Transport
	Opts       []train.Optimizer // per-stage optimizers over stage-local params
	Regression bool
	Micro      int // micro-batches per mini-batch

	// StepTimeout bounds one mini-batch in StepCtx; a stage that stops
	// producing within it is declared dead (RankFailedError). Zero
	// means no deadline. A hybrid lane runs under the hybrid's instead.
	StepTimeout time.Duration
	// Retry is the transient-fault retry policy for boundary sends;
	// zero value uses DefaultRetry.
	Retry RetryPolicy

	// SyncGrads, when non-nil, is invoked per stage after a mini-batch's
	// gradients are complete and before the optimizer step (hybrid
	// cross-lane AllReduce hook). A returned error aborts the step.
	SyncGrads func(ctx context.Context, stage int, params []*autograd.Variable) error
	// OnTap, when non-nil, observes every tap activation computed during
	// forward (PAC phase-1 cache collection). ids are the sample ids of
	// the micro-batch.
	OnTap func(ids []int, tapIdx int, tap *tensor.Tensor)

	// Trace, when non-nil, records per-stage forward/backward micro-batch
	// spans as Chrome trace events under the step's root span — StepCtx's
	// own, or the one the hybrid engine above put in ctx. TracePID is the
	// trace process id this engine's spans land on (the hybrid engine
	// assigns one pid per lane); the thread id is the stage index.
	Trace    *telemetry.Tracer
	TracePID int

	// Health, when non-nil, receives one StepStats per stage per
	// mini-batch: the stage's summed forward and backward seconds
	// (including boundary transport waits, excluding SyncGrads) and the
	// boundary bytes it sent. HealthLane locates this engine in the
	// device grid (the hybrid engine assigns one per lane). StepCtx adds
	// the whole-step sample (Lane/Stage/Rank all -1); as a hybrid lane
	// the engine leaves that one to the hybrid engine's Health.
	Health     health.Sink
	HealthLane int

	// Mem, when non-nil, maps a stage index to its simulated device's
	// memory-ledger account. Each in-flight micro-batch reserves what it
	// pins between forward and backward — its taps, side input and
	// output, and logits (the 1F1B warmup depth is what makes early
	// stages hold more) — so per-device ledgers reproduce the paper's
	// per-device memory table live.
	Mem func(stage int) *memledger.Account
}

// Stages returns the stage count.
func (e *PipelineEngine) Stages() int { return len(e.Boundaries) - 1 }

// StageParams returns the trainable parameters owned by stage s: the
// side adapters of its taps, and the side head on the last stage.
func (e *PipelineEngine) StageParams(s int) []*autograd.Variable {
	out := e.Tech.SideParams(e.stageTapRange(s))
	if s == e.Stages()-1 {
		out = append(out, e.Tech.HeadParams()...)
	}
	return out
}

// stageTapRange returns the [lo, hi) tap indices produced by stage s.
func (e *PipelineEngine) stageTapRange(s int) (int, int) {
	lo, hi := -1, -1
	for bi := e.Boundaries[s]; bi < e.Boundaries[s+1]; bi++ {
		ti := e.Model.TapIndex(bi)
		if ti < 0 {
			continue
		}
		if lo < 0 {
			lo = ti
		}
		hi = ti + 1
	}
	if lo < 0 {
		return 0, 0
	}
	return lo, hi
}

// microCtx is the retained forward context of one micro-batch on one
// stage, consumed by its backward: the stage's taps (the side graph's
// inputs; the frozen forward that made them is already released), its
// side state in and out, and on the last stage the logits.
type microCtx struct {
	taps                    []*tensor.Tensor
	sideIn, sideOut, logits *autograd.Variable
	mb                      *data.Batch
	// fwdTC is the trace context of this micro-batch's forward span on
	// this stage; the last stage parents its backward span here (the
	// backward is caused by the forward, not by a downstream frame).
	fwdTC telemetry.TraceContext
	// memBytes is what this context reserved in the stage's device
	// ledger account (Mem); backward releases exactly this.
	memBytes int64
}

// retainedBytes sums the distinct tensor payloads the context pins
// between forward and backward, deduplicating aliased buffers (sideOut
// can alias sideIn on tap-free stages).
func (mc *microCtx) retainedBytes() int64 {
	ts := slices.Clone(mc.taps)
	for _, v := range [...]*autograd.Variable{mc.sideIn, mc.sideOut, mc.logits} {
		if v != nil {
			ts = append(ts, v.Value)
		}
	}
	var seen []*float32
	var total int64
	for _, t := range ts {
		if t == nil || len(t.Data) == 0 || slices.Contains(seen, &t.Data[0]) {
			continue
		}
		seen = append(seen, &t.Data[0])
		total += int64(t.Numel()) * 4
	}
	return total
}

// spanEnter begins a stage span whose parent may arrive later (inside
// the boundary frame). spanExit records it once the parent is known, as
// a causal child when the trace is sampled and not at all when it is
// not: a step with a tracer always has a root (step.run), so a stage
// that no context reached is inside an unsampled step.
func (e *PipelineEngine) spanEnter() time.Time {
	if e.Trace == nil {
		return time.Time{}
	}
	return time.Now()
}

func (e *PipelineEngine) spanExit(begin time.Time, parent, tc telemetry.TraceContext, name string, tid int) {
	if e.Trace != nil && tc.Sampled {
		e.Trace.RecordSpanAt(tc, parent.SpanID, "compute", name, e.TracePID, tid, begin, time.Since(begin), nil)
	}
}

// childTC derives the span context executing under parent. Derivation
// happens even when the trace is unsampled so the context keeps
// propagating downstream with the decision intact.
func childTC(parent telemetry.TraceContext) telemetry.TraceContext {
	if !parent.Valid() {
		return telemetry.TraceContext{}
	}
	return telemetry.TraceContext{TraceID: parent.TraceID, SpanID: telemetry.NewID(), Sampled: parent.Sampled}
}

// StepCtx trains one mini-batch with the 1F1B schedule and returns the
// global mean loss. If a stage dies mid-batch every surviving stage
// aborts cleanly (no hang, no leaked goroutine) and the step reports a
// RankFailedError naming the suspect stage.
func (e *PipelineEngine) StepCtx(ctx context.Context, b *data.Batch) (float64, error) {
	var loss float64
	err := step{enginePP, e.Trace, e.StepTimeout, e.Health}.run(ctx, b, e.Stages(), e.schedule(b, b.Size(), &loss))
	if err != nil {
		return 0, err
	}
	return loss, nil
}

// schedule returns what one stage does for mini-batch b: its 1F1B
// sequence of forwards and backwards over b's micro-batches, the
// SyncGrads hook, the optimizer step and the stage's health sample.
// The caller runs it for every stage at once (fanOut) — StepCtx under
// the step scaffold, the hybrid engine per lane under its own. denom is
// the size of the whole mini-batch a micro-batch's loss is weighted
// against: b's own, or under the hybrid engine the global batch's, so
// that lane gradients sum correctly. The last stage adds each
// micro-batch's weighted loss to *loss. An empty b (a hybrid lane with
// no shard) runs no micro-batch and goes straight to SyncGrads with
// whatever gradients the parameters hold: none.
func (e *PipelineEngine) schedule(b *data.Batch, denom int, loss *float64) func(ctx context.Context, s int) error {
	S := e.Stages()
	var micros []*data.Batch
	if b.Size() > 0 {
		micros = b.Split(e.Micro)
	}
	M := len(micros)
	return func(ctx context.Context, s int) error {
		ctxs := make([]*microCtx, M)
		warmup := S - 1 - s
		if warmup > M {
			warmup = M
		}
		var st stageStats
		fwd, bwd := 0, 0
		runFwd := func() error {
			t0 := time.Now()
			mc, err := e.stageForward(ctx, s, fwd, micros[fwd], &st)
			st.fwdSec += time.Since(t0).Seconds()
			if err != nil {
				return err
			}
			if e.Mem != nil {
				mc.memBytes = mc.retainedBytes()
				e.Mem(s).Reserve(mc.memBytes)
			}
			ctxs[fwd] = mc
			fwd++
			return nil
		}
		runBwd := func() error {
			t0 := time.Now()
			l, err := e.stageBackward(ctx, s, bwd, ctxs[bwd], denom, &st)
			st.bwdSec += time.Since(t0).Seconds()
			if err != nil {
				return err
			}
			if e.Mem != nil {
				e.Mem(s).Release(ctxs[bwd].memBytes)
			}
			ctxs[bwd] = nil
			if s == S-1 {
				*loss += l
			}
			bwd++
			return nil
		}
		for i := 0; i < warmup; i++ {
			if err := runFwd(); err != nil {
				return err
			}
		}
		for fwd < M {
			if err := runFwd(); err != nil {
				return err
			}
			if err := runBwd(); err != nil {
				return err
			}
		}
		for bwd < M {
			if err := runBwd(); err != nil {
				return err
			}
		}
		params := e.StageParams(s)
		if e.SyncGrads != nil {
			if err := e.SyncGrads(ctx, s, params); err != nil {
				return err
			}
		}
		e.Opts[s].Step()
		// Report compute+boundary time only — SyncGrads (the
		// cross-lane AllReduce barrier) is excluded so a slow lane
		// is visible in its own numbers, not smeared across all.
		if e.Health != nil {
			e.Health.ReportStep(health.StepStats{
				Engine: "pp", Lane: e.HealthLane, Stage: s, Rank: -1,
				FwdSec: st.fwdSec, BwdSec: st.bwdSec,
				StepSec: st.fwdSec + st.bwdSec, Bytes: st.bytes,
			})
		}
		return nil
	}
}

// stageStats accumulates one stage's per-mini-batch health sample:
// forward/backward wall seconds and boundary bytes sent.
type stageStats struct {
	fwdSec, bwdSec float64
	bytes          int64
}

// stageForward runs stage s's blocks through the frozen backbone's walk
// (model.FrozenForward) and the side adapters of their taps for
// micro-batch m: the side graph reads only the taps, and the next stage
// reads only the frame.
func (e *PipelineEngine) stageForward(ctx context.Context, s, m int, mb *data.Batch, st1 *stageStats) (*microCtx, error) {
	begin := e.spanEnter()
	var parent, ftc telemetry.TraceContext
	defer func() { e.spanExit(begin, parent, ftc, fmt.Sprintf("F%d", m), s) }()
	pa := e.Tech

	mc := &microCtx{mb: mb}
	st := &model.State{EncIDs: mb.Enc, DecIDs: mb.Dec, EncLens: mb.Lens}

	var side *autograd.Variable
	if s == 0 {
		// The step root (hybrid/core/DP orchestration) travels in ctx;
		// every downstream stage inherits it via frame envelopes.
		if tc, ok := telemetry.TraceFrom(ctx); ok {
			parent = tc
		}
		ftc = childTC(parent)
		side = pa.SideInit(len(mb.Enc), len(mb.Enc[0]))
	} else {
		raw, err := recvPeer(ctx, e.Endpoints[s], s-1, fmt.Sprintf("f%d", m))
		if err != nil {
			return nil, err
		}
		var payload []byte
		parent, payload = telemetry.UnwrapEnvelope(raw)
		ftc = childTC(parent)
		in, err := decodeBundle(payload)
		if err != nil {
			return nil, err
		}
		if in.Side == nil {
			return nil, fmt.Errorf("parallel: stage %d: forward frame f%d carries no side state", s, m)
		}
		// The backbone inputs are frozen leaves; only the side state
		// carries a gradient back.
		if in.Enc != nil {
			st.Enc = autograd.NewVar(in.Enc)
		}
		if in.Dec != nil {
			st.Dec = autograd.NewVar(in.Dec)
		}
		mc.sideIn = autograd.NewParam(in.Side)
		side = mc.sideIn
	}

	mc.taps = e.Model.FrozenForward(st, e.Boundaries[s], e.Boundaries[s+1], func(ti int, tap *tensor.Tensor) {
		if e.OnTap != nil {
			e.OnTap(mb.IDs, ti, tap)
		}
		// The first decoder tap crosses from encoder to decoder:
		// re-seed the side state from the pooled encoder-side state.
		if ti == e.Model.Cfg.Layers {
			side = pa.CrossOver(side, tap.Dim(1))
		}
		side = pa.SideStep(ti, tap, side)
	})
	mc.sideOut = side
	mc.fwdTC = ftc

	var frame []byte
	if s == e.Stages()-1 {
		mc.logits = pa.Head(side)
	} else {
		out := bundle{Side: side.Value}
		if st.Enc != nil {
			out.Enc = st.Enc.Value
		}
		if st.Dec != nil {
			out.Dec = st.Dec.Value
		}
		// The F span's context rides the frame: the next stage's F span
		// becomes its child, chaining the microbatch across devices.
		frame = appendBundle(telemetry.AppendEnvelope(nil, ftc), out)
	}
	// A final state that is a tap stays: the side graph reads it until
	// its backward, which puts it back.
	for _, v := range []*autograd.Variable{st.Enc, st.Dec} {
		if v != nil && !slices.Contains(mc.taps, v.Value) {
			tensor.PutTensor(v.Value)
		}
	}
	if frame != nil {
		st1.bytes += int64(len(frame))
		if err := sendRetry(ctx, e.Endpoints[s], s+1, fmt.Sprintf("f%d", m), frame, e.Retry); err != nil {
			return nil, err
		}
	}
	return mc, nil
}

// stageBackward runs stage s's side backward for micro-batch m and
// returns the micro-batch's weighted loss (last stage only).
func (e *PipelineEngine) stageBackward(ctx context.Context, s, m int, mc *microCtx, denom int, st1 *stageStats) (float64, error) {
	begin := e.spanEnter()
	var parent, btc telemetry.TraceContext
	defer func() { e.spanExit(begin, parent, btc, fmt.Sprintf("B%d", m), s) }()
	var lossVal float64
	var root *autograd.Variable

	if s == e.Stages()-1 {
		// The turnaround: the last stage's backward is caused by its own
		// forward, so the chain folds back through the pipeline.
		parent = mc.fwdTC
		btc = childTC(parent)
		root = train.Loss(mc.logits, mc.mb, e.Regression)
		w := float32(mc.mb.Size()) / float32(denom)
		autograd.BackwardWithSeed(root, tensor.FromSlice([]float32{w}, 1))
		lossVal = float64(root.Value.Data[0]) * float64(w)
	} else {
		raw, err := recvPeer(ctx, e.Endpoints[s], s+1, fmt.Sprintf("b%d", m))
		if err != nil {
			return 0, err
		}
		var payload []byte
		parent, payload = telemetry.UnwrapEnvelope(raw)
		btc = childTC(parent)
		in, err := decodeBundle(payload)
		if err != nil {
			return 0, err
		}
		root = mc.sideOut
		autograd.BackwardMulti([]*autograd.Variable{root}, []*tensor.Tensor{in.Side})
	}

	if s > 0 {
		g := gradOrZero(mc.sideIn)
		frame := appendBundle(telemetry.AppendEnvelope(nil, btc), bundle{Side: g})
		// The gradient is in the frame: detached from its leaf, so the
		// sweep below does not read a recycled header, it goes back.
		mc.sideIn.Grad = nil
		tensor.PutTensor(g)
		st1.bytes += int64(len(frame))
		if err := sendRetry(ctx, e.Endpoints[s], s-1, fmt.Sprintf("b%d", m), frame, e.Retry); err != nil {
			return 0, err
		}
	}
	// The micro-batch is fully consumed (loss read, gradient frame
	// encoded): tear its side graph down so the stage's intermediates go
	// back to the pool before the next micro-batch allocates. The sweep
	// leaves the root's value and the taps (leaves of the side graph) to
	// their owner, and that is this function.
	autograd.Release(root)
	tensor.PutTensor(root.Value)
	for _, t := range mc.taps {
		tensor.PutTensor(t)
	}
	return lossVal, nil
}

func gradOrZero(v *autograd.Variable) *tensor.Tensor {
	if v.Grad != nil {
		return v.Grad
	}
	return tensor.New(v.Value.Shape()...)
}

// NewPipeline builds a pipeline engine with per-stage SGD optimizers
// (lr) over a chan fabric, partitioning blocks evenly when boundaries is
// nil.
func NewPipeline(m *model.Model, tech *peft.Parallel, stages int, boundaries []int, micro int, lr float32) *PipelineEngine {
	if boundaries == nil {
		boundaries = EvenBoundaries(len(m.Blocks), stages)
	}
	e := &PipelineEngine{
		Model:      m,
		Tech:       tech,
		Boundaries: boundaries,
		Endpoints:  NewChanNetwork(len(boundaries) - 1).Endpoints(),
		Micro:      micro,
	}
	for s := 0; s < e.Stages(); s++ {
		e.Opts = append(e.Opts, train.NewSGD(e.StageParams(s), lr, 0, 0))
	}
	return e
}

// EvenBoundaries splits n blocks into k near-equal contiguous ranges.
func EvenBoundaries(n, k int) []int {
	if k > n {
		k = n
	}
	out := make([]int, k+1)
	for i := 0; i <= k; i++ {
		out[i] = i * n / k
	}
	return out
}

// AllStageParams concatenates every stage's trainable parameters in
// stage order — the full trainable set as the engine sees it.
func (e *PipelineEngine) AllStageParams() []*autograd.Variable {
	var out []*autograd.Variable
	for s := 0; s < e.Stages(); s++ {
		out = append(out, e.StageParams(s)...)
	}
	return out
}
