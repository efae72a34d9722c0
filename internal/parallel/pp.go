package parallel

import (
	"context"
	"fmt"
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

// bundle is the activation (or gradient) payload crossing a stage
// boundary: encoder state, decoder state (once the decoder region has
// started), and the Parallel Adapters side state. Absent tensors are
// nil.
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

// PipelineEngine executes 1F1B pipeline-parallel fine-tuning over one
// model partitioned into stages (paper §5.1 / Eco-FL baseline). Each
// stage runs in its own goroutine and exchanges boundary bundles over a
// Transport.
//
// With an in-backbone technique (Full/Adapters/LoRA), boundary
// activations carry gradients back through every stage. With Parallel
// Adapters only the r-wide side state carries gradients — the
// paper's gradient highway — and backbone boundary traffic is
// forward-only.
type PipelineEngine struct {
	Model      *model.Model
	Tech       peft.Technique
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
	// memory-ledger account. Each in-flight micro-batch reserves its
	// retained boundary activations (the 1F1B warmup depth is what makes
	// early stages hold more) between forward and backward, so per-device
	// ledgers reproduce the paper's per-device memory table live.
	Mem func(stage int) *memledger.Account
}

// Stages returns the stage count.
func (e *PipelineEngine) Stages() int { return len(e.Boundaries) - 1 }

// parallelTech returns the technique as *peft.Parallel when applicable.
func (e *PipelineEngine) parallelTech() *peft.Parallel {
	p, _ := e.Tech.(*peft.Parallel)
	return p
}

// StageParams returns the trainable parameters owned by stage s: the
// requires-grad parameters of its blocks plus, under Parallel Adapters,
// the side modules of its taps (and the side head on the last stage).
func (e *PipelineEngine) StageParams(s int) []*autograd.Variable {
	var out []*autograd.Variable
	for _, p := range e.Model.BlockParams(e.Boundaries[s], e.Boundaries[s+1]) {
		if p.RequiresGrad() {
			out = append(out, p)
		}
	}
	if pa := e.parallelTech(); pa != nil {
		lo, hi := e.stageTapRange(s)
		out = append(out, pa.SideParams(lo, hi)...)
		if s == e.Stages()-1 {
			out = append(out, pa.HeadParams()...)
		}
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
// stage, consumed by its backward.
type microCtx struct {
	encIn, decIn, sideIn    *autograd.Variable
	encOut, decOut, sideOut *autograd.Variable
	logits                  *autograd.Variable
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
	vars := [...]*autograd.Variable{
		mc.encIn, mc.decIn, mc.sideIn, mc.encOut, mc.decOut, mc.sideOut, mc.logits,
	}
	var seen [len(vars)]*float32
	n := 0
	var total int64
	for _, v := range vars {
		if v == nil || v.Value == nil || len(v.Value.Data) == 0 {
			continue
		}
		p := &v.Value.Data[0]
		dup := false
		for i := 0; i < n; i++ {
			if seen[i] == p {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		seen[n] = p
		n++
		total += int64(v.Value.Numel()) * 4
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

// stageForward runs stage s's blocks for micro-batch m.
func (e *PipelineEngine) stageForward(ctx context.Context, s, m int, mb *data.Batch, st1 *stageStats) (*microCtx, error) {
	begin := e.spanEnter()
	var parent, ftc telemetry.TraceContext
	defer func() { e.spanExit(begin, parent, ftc, fmt.Sprintf("F%d", m), s) }()
	S := e.Stages()
	pa := e.parallelTech()
	needBackboneGrads := e.Tech.BackboneBackward()

	mc := &microCtx{mb: mb}
	st := &model.State{EncIDs: mb.Enc, DecIDs: mb.Dec, EncLens: mb.Lens}

	var sideState *autograd.Variable
	if s == 0 {
		// The step root (hybrid/core/DP orchestration) travels in ctx;
		// every downstream stage inherits it via frame envelopes.
		if tc, ok := telemetry.TraceFrom(ctx); ok {
			parent = tc
		}
		ftc = childTC(parent)
	}
	if s > 0 {
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
		if in.Enc != nil {
			mc.encIn = autograd.NewVar(in.Enc)
			mc.encIn.SetRequiresGrad(needBackboneGrads)
			st.Enc = mc.encIn
		}
		if in.Dec != nil {
			mc.decIn = autograd.NewVar(in.Dec)
			mc.decIn.SetRequiresGrad(needBackboneGrads)
			st.Dec = mc.decIn
		}
		if in.Side != nil {
			mc.sideIn = autograd.NewParam(in.Side) // side state always carries grads
			sideState = mc.sideIn
		}
	} else if pa != nil {
		sideState = pa.SideInit(len(mb.Enc), len(mb.Enc[0]))
	}

	e.Model.ForwardRange(st, e.Boundaries[s], e.Boundaries[s+1])

	// Parallel Adapters: consume this stage's taps through the side chain.
	if pa != nil {
		tapPos := 0
		for bi := e.Boundaries[s]; bi < e.Boundaries[s+1]; bi++ {
			ti := e.Model.TapIndex(bi)
			if ti < 0 {
				continue
			}
			tap := st.Taps[tapPos].Value
			tapPos++
			if e.OnTap != nil {
				e.OnTap(mb.IDs, ti, tap)
			}
			// The first decoder tap crosses from encoder to decoder:
			// re-seed the side state from the pooled encoder-side state.
			if ti == e.Model.Cfg.Layers {
				sideState = pa.CrossOver(sideState, tap.Dim(1))
			}
			sideState = pa.SideStep(ti, tap, sideState)
		}
		mc.sideOut = sideState
	}

	mc.fwdTC = ftc
	last := s == S-1
	if last {
		if pa != nil {
			mc.logits = pa.Head(sideState)
		} else {
			mc.logits = st.Logits
		}
		return mc, nil
	}

	out := bundle{}
	if st.Enc != nil {
		mc.encOut = st.Enc
		out.Enc = st.Enc.Value
	}
	if st.Dec != nil {
		mc.decOut = st.Dec
		out.Dec = st.Dec.Value
	}
	if pa != nil && sideState != nil {
		out.Side = sideState.Value
	}
	// The F span's context rides the frame: the next stage's F span
	// becomes its child, chaining the microbatch across devices.
	frame := appendBundle(telemetry.AppendEnvelope(nil, ftc), out)
	st1.bytes += int64(len(frame))
	if err := sendRetry(ctx, e.Endpoints[s], s+1, fmt.Sprintf("f%d", m), frame, e.Retry); err != nil {
		return nil, err
	}
	return mc, nil
}

// stageBackward runs stage s's backward for micro-batch m and returns
// the micro-batch's weighted loss (last stage only).
func (e *PipelineEngine) stageBackward(ctx context.Context, s, m int, mc *microCtx, denom int, st1 *stageStats) (float64, error) {
	begin := e.spanEnter()
	var parent, btc telemetry.TraceContext
	defer func() { e.spanExit(begin, parent, btc, fmt.Sprintf("B%d", m), s) }()
	S := e.Stages()
	pa := e.parallelTech()
	needBackboneGrads := e.Tech.BackboneBackward()
	var lossVal float64
	var roots []*autograd.Variable

	if s == S-1 {
		// The turnaround: the last stage's backward is caused by its own
		// forward, so the chain folds back through the pipeline.
		parent = mc.fwdTC
		btc = childTC(parent)
		loss := train.Loss(mc.logits, mc.mb, e.Regression)
		w := float32(mc.mb.Size()) / float32(denom)
		autograd.BackwardWithSeed(loss, tensor.FromSlice([]float32{w}, 1))
		lossVal = float64(loss.Value.Data[0]) * float64(w)
		roots = append(roots, loss)
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
		var outs []*autograd.Variable
		var seeds []*tensor.Tensor
		if in.Enc != nil && mc.encOut != nil {
			outs = append(outs, mc.encOut)
			seeds = append(seeds, in.Enc)
		}
		if in.Dec != nil && mc.decOut != nil {
			outs = append(outs, mc.decOut)
			seeds = append(seeds, in.Dec)
		}
		if in.Side != nil && mc.sideOut != nil {
			outs = append(outs, mc.sideOut)
			seeds = append(seeds, in.Side)
		}
		autograd.BackwardMulti(outs, seeds)
		roots = outs
	}

	if s > 0 {
		out := bundle{}
		if needBackboneGrads {
			if mc.encIn != nil {
				out.Enc = gradOrZero(mc.encIn)
			}
			if mc.decIn != nil {
				out.Dec = gradOrZero(mc.decIn)
			}
		}
		if pa != nil && mc.sideIn != nil {
			out.Side = gradOrZero(mc.sideIn)
		}
		frame := appendBundle(telemetry.AppendEnvelope(nil, btc), out)
		st1.bytes += int64(len(frame))
		if err := sendRetry(ctx, e.Endpoints[s], s-1, fmt.Sprintf("b%d", m), frame, e.Retry); err != nil {
			return 0, err
		}
	}
	// The micro-batch is fully consumed (loss read, boundary gradient
	// frames encoded): tear its graph down so the stage's intermediates
	// go back to the pool before the next micro-batch allocates. The
	// sweep leaves the roots' values to their caller, and that is this
	// function: the loss and the boundary outputs were read above.
	autograd.Release(roots...)
	for _, r := range roots {
		tensor.PutTensor(r.Value)
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
func NewPipeline(m *model.Model, tech peft.Technique, stages int, boundaries []int, micro int, lr float32) *PipelineEngine {
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
