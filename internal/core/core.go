// Package core is the PAC framework itself: the orchestration layer
// implementing the paper's workflow (Figure 4).
//
//	Step 0  attach Parallel Adapters to the target LLM
//	Step 1  profile the runtime (here: the analytic cost model, validated
//	        against the real engine by tests)
//	Step 2  plan hybrid parallelism (stage partitioning + device groups)
//	Step 3  freeze the backbone, mark adapters trainable
//	Step 4  epoch 1: hybrid data+pipeline fine-tuning, filling the
//	        activation cache
//	Step 5  epochs ≥ 2: redistribute adapters + cache, train the adapters
//	        alone with data parallelism
//
// Two entry points exist: Framework runs the workflow for real on
// goroutine devices (used by tests, examples and small-scale jobs);
// Simulate runs it in virtual time on a device cost model (used to
// regenerate the paper's duration/memory tables at Jetson-Nano scale).
package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"pac/internal/acache"
	"pac/internal/autograd"
	"pac/internal/checkpoint"
	"pac/internal/data"
	"pac/internal/health"
	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/parallel"
	"pac/internal/peft"
	"pac/internal/telemetry"
	"pac/internal/tensor"
	"pac/internal/train"
)

// Config configures a real PAC fine-tuning run.
type Config struct {
	Model model.Config
	Opts  peft.Options
	// Stages × Lanes devices run phase 1; Stages·Lanes devices run the
	// data-parallel cached epochs.
	Stages int
	Lanes  int
	Micro  int // micro-batches per mini-batch in phase 1
	LR     float32
	// Cache receives the tap activations; defaults to an in-memory store.
	Cache acache.Store
	// Regression selects MSE loss (STS-B).
	Regression bool
	// Adam switches the per-stage/per-replica optimizers from plain SGD
	// to Adam (recommended for real training; SGD keeps the engines'
	// gradient-equivalence tests exact).
	Adam bool
	// Backbone, when non-nil, seeds the framework's frozen backbone with
	// this model's weights — the pretrained personal LLM that PAC adapts.
	// The weights are copied: the caller's model stays the caller's. It
	// must have been built from the same Config.Model.
	Backbone *model.Model
	// StepTimeout bounds each distributed training step: a rank that
	// goes silent for longer is declared dead and the step returns a
	// parallel.RankFailedError instead of hanging. Zero disables the
	// deadline (reliable-LAN assumption).
	StepTimeout time.Duration
	// WrapTransport, when non-nil, rewires each fabric through this hook:
	// the one fault-injection door (the supervisor wraps fabrics in
	// parallel.WrapFaulty through it), able to target one fabric — e.g.
	// crash a single stage of a single lane. Besides the hybrid fabrics
	// it also sees the cached-epoch data-parallel fabric as
	// FabricID{Kind: "dp", Index: 0} (ranks are workers).
	WrapTransport func(parallel.FabricID, []parallel.Transport) []parallel.Transport
	// SnapshotEvery enables elastic-resume captures: after every K-th
	// completed training step the framework assembles a consistent
	// checkpoint.Snapshot — adapter weights, optimizer moments, resume
	// cursor, cache manifest — and hands it to OnSnapshot. The capture
	// itself is cheap tensor clones taken between steps; OnSnapshot
	// should queue the actual write off the training path (e.g.
	// checkpoint.Snapshotter). Zero disables captures.
	SnapshotEvery int
	OnSnapshot    func(*checkpoint.Snapshot)
	// Trace, when non-nil, records the run's real timeline — per-stage
	// F/B micro-batch spans on one trace process per lane, DP replica
	// steps on telemetry.PidDP, and orchestrator events (whole steps,
	// snapshot captures/restores, cache salvage) on telemetry.PidOrch —
	// in the same Chrome/Perfetto JSON format the simulator emits.
	Trace *telemetry.Tracer
	// Health, when non-nil, receives per-stage/per-rank/per-step reports
	// from every engine (typically a *health.Monitor) — the input to
	// straggler and drift detection. Nil disables health sampling.
	Health health.Sink
	// MemFor, when non-nil, maps a (lane, stage) pair to that simulated
	// device's memory-ledger account. Each pipeline engine reserves a
	// micro-batch's retained activations there between forward and
	// backward, so per-device ledgers expose the 1F1B memory profile
	// live (pac-train's /debug/mem device view).
	MemFor func(lane, stage int) *memledger.Account
}

// Cursor pinpoints where a resumed run continues: Step completed steps
// of Epoch are already reflected in the restored state, so training
// resumes at batch index Step. Epoch 0 is the hybrid cache-filling
// epoch; epochs ≥ 1 are cache-only. The zero Cursor means "from the
// beginning".
type Cursor struct {
	Epoch int
	Step  int
}

// Framework is a live PAC deployment.
type Framework struct {
	cfg    Config
	hybrid *parallel.HybridEngine
	cache  acache.Store

	// backbone is the one frozen model of the deployment. Every hybrid
	// lane, the reference and every cached-epoch rank is a side network
	// over it: the backbone never changes, so nobody needs a copy.
	backbone *model.Model
	// reference is the side network used for evaluation and as the
	// source of truth for adapter weights after training.
	reference *peft.Parallel

	// cacheMu-free: cache stores are concurrency-safe; partial entries
	// are assembled via a builder keyed by sample id.
	builder *cacheBuilder

	phase1Done bool
	epochsRun  int
	recomputed int64

	// manifest ledgers a checksum per committed cache entry; snapshots
	// persist it and salvage verifies surviving entries against it.
	manifest *acache.Manifest
	// sinceSnap counts steps since the last snapshot capture; curSeed is
	// the data-order seed of the active FineTune run (recorded in
	// snapshots so a resume replays the same batch order).
	sinceSnap int
	curSeed   int64
	// pendingOpt holds DP optimizer state restored from a snapshot,
	// consumed when the cached-epoch group is built.
	pendingOpt []checkpoint.OptGroup
	// RedistributedBytes records the payload of the phase-transition
	// collective (adapter params + cache shards), for reporting.
	RedistributedBytes int64
	// CoverageMissing counts dataset samples absent from the cache at
	// redistribution time (nonzero with capacity-bounded caches).
	CoverageMissing int
}

// New builds a PAC framework: instantiates the one backbone, attaches
// Parallel Adapters per lane (Step 0), freezes the backbone (Step 3),
// and wires the hybrid engine (Step 2's plan, expressed as Stages ×
// Lanes). A quantized tensor backend gets the backbone's int8 forms,
// built once here.
func New(cfg Config) *Framework {
	if cfg.Stages < 1 || cfg.Lanes < 1 {
		panic("core: need at least one stage and one lane")
	}
	if cfg.Micro < 1 {
		cfg.Micro = 2 * cfg.Stages
	}
	if cfg.LR == 0 {
		cfg.LR = 0.01
	}
	if cfg.Cache == nil {
		cfg.Cache = acache.NewMemoryStore()
	}
	f := &Framework{cfg: cfg, cache: cfg.Cache}
	f.manifest = acache.NewManifest(2 * cfg.Model.Layers)
	f.builder = newCacheBuilder(2*cfg.Model.Layers, f.cache, f.manifest)

	m := model.New(cfg.Model)
	if cfg.Backbone != nil {
		nn.CopyParams(m, cfg.Backbone)
	}
	if tensor.BackendQuantized() {
		// Freeze first (idempotent with every side network's own freeze)
		// so the projections are quantizable; scales computed here stay
		// valid for the framework's lifetime.
		m.Freeze()
		m.QuantizeBackbone()
	}
	f.backbone = m

	f.hybrid = parallel.NewHybrid(cfg.Lanes, cfg.Stages, cfg.Micro, cfg.LR, func(lane int) *parallel.PipelineEngine {
		e := parallel.NewPipeline(m, peft.NewParallel(m, cfg.Opts), cfg.Stages, nil, cfg.Micro, cfg.LR)
		if cfg.Adam {
			e.Opts = nil
			for s := 0; s < e.Stages(); s++ {
				e.Opts = append(e.Opts, train.NewAdam(e.StageParams(s), cfg.LR))
			}
		}
		e.OnTap = f.builder.observe // the builder dedups by sample id
		e.Trace = cfg.Trace
		e.TracePID = lane
		e.Health = cfg.Health
		e.HealthLane = lane
		if cfg.MemFor != nil {
			e.Mem = func(stage int) *memledger.Account { return cfg.MemFor(lane, stage) }
		}
		cfg.Trace.SetProcessName(lane, fmt.Sprintf("lane %d (pipeline)", lane))
		return e
	})
	f.hybrid.Trace = cfg.Trace
	f.hybrid.Health = cfg.Health
	cfg.Trace.SetProcessName(telemetry.PidOrch, "orchestrator")

	f.hybrid.StepTimeout = cfg.StepTimeout
	if cfg.OnSnapshot != nil && cfg.SnapshotEvery > 0 {
		f.hybrid.OnStep = func(epoch, step int) { f.maybeSnapshot(epoch, step, nil) }
	}
	if cfg.WrapTransport != nil {
		f.hybrid.WrapTransports(cfg.WrapTransport)
	}

	f.reference = peft.NewParallel(m, cfg.Opts)
	return f
}

// cacheBuilder assembles per-sample cache entries from per-stage,
// per-micro-batch tap observations.
type cacheBuilder struct {
	taps     int
	store    acache.Store
	manifest *acache.Manifest
	mu       chMutex
	parts    map[int]acache.Entry
}

// chMutex is a channel-based mutex (keeps the struct copy-safe in vet).
type chMutex chan struct{}

func (m chMutex) lock()   { m <- struct{}{} }
func (m chMutex) unlock() { <-m }

func newCacheBuilder(taps int, store acache.Store, manifest *acache.Manifest) *cacheBuilder {
	return &cacheBuilder{taps: taps, store: store, manifest: manifest,
		mu: make(chMutex, 1), parts: map[int]acache.Entry{}}
}

// observe records tap tapIdx for every sample of a micro-batch; when a
// sample's entry is complete it is committed to the store.
func (b *cacheBuilder) observe(ids []int, tapIdx int, tap *tensor.Tensor) {
	b.mu.lock()
	defer b.mu.unlock()
	for row, id := range ids {
		if b.store.Has(id) {
			continue // later epochs re-run phase-1 paths only if uncached
		}
		e := b.parts[id]
		if e == nil {
			e = make(acache.Entry, b.taps)
			b.parts[id] = e
		}
		if e[tapIdx] == nil {
			e[tapIdx] = tensor.SliceRows(tap, row, row+1)
		}
		complete := true
		for _, t := range e {
			if t == nil {
				complete = false
				break
			}
		}
		if complete {
			if err := b.store.Put(id, e); err == nil {
				delete(b.parts, id)
				if b.manifest != nil {
					b.manifest.Observe(id, e)
				}
			}
		}
	}
}

// Phase1EpochCtx runs one hybrid data+pipeline epoch over the loader
// (paper Step 4), filling the activation cache as a side effect, and
// returns the mean loss. A dead device aborts the epoch cleanly and
// surfaces a parallel.RankFailedError so the supervisor can re-plan
// on the survivors.
func (f *Framework) Phase1EpochCtx(ctx context.Context, loader *data.Loader, epoch int) (float64, error) {
	return f.phase1EpochFrom(ctx, loader, epoch, 0)
}

// phase1EpochFrom resumes a hybrid epoch at batch index start —
// batches before it were completed (and their samples cached) before
// the interruption, so only the remainder runs.
func (f *Framework) phase1EpochFrom(ctx context.Context, loader *data.Loader, epoch, start int) (float64, error) {
	loss, err := f.hybrid.TrainEpochFromCtx(ctx, loader, epoch, start)
	if err != nil {
		return 0, err
	}
	f.phase1Done = true
	f.epochsRun++
	mEpochsHybrid.Inc()
	return loss, nil
}

// Redistribute performs the phase transition (paper §5.2): every device
// receives the full adapter parameters and the complete activation
// cache. Every rank shares this process's store, so nothing moves: the
// method checks cache coverage, copies lane 0's adapters into the
// reference replica and records RedistributedBytes, the bytes a
// transfer between devices would ship. The simulator prices that
// transfer (bench.RedistributionAblation).
func (f *Framework) Redistribute(ds *data.Dataset) error {
	if !f.phase1Done {
		return fmt.Errorf("core: redistribute before phase 1")
	}
	ids := make([]int, ds.Len())
	for i, ex := range ds.Examples {
		ids[i] = ex.ID
	}
	// Capacity-bounded caches may have turned entries away — all of them,
	// once a pressure Shed has taken the bound to zero; those samples
	// fall back to backbone recomputation during cached epochs. Record
	// the shortfall for observability.
	f.CoverageMissing = 0
	for _, id := range ids {
		if !f.cache.Has(id) {
			f.CoverageMissing++
		}
	}
	// Adapter parameters: lanes are in sync; adopt lane 0's weights.
	flat := nn.FlattenParams(f.hybrid.Lanes[0].Tech.Trainable())
	nn.UnflattenParams(f.reference.Trainable(), flat)
	f.RedistributedBytes = int64(len(flat))*4 + f.cache.Bytes()
	return nil
}

// CachedEpochsCtx runs n data-parallel epochs of adapter-only training
// from the cache (paper Step 5) across Stages×Lanes workers and returns
// the mean loss of the final epoch. The DP fabric runs under the
// configured StepTimeout (and fault injection, if enabled); a dead
// worker surfaces as a parallel.RankFailedError.
func (f *Framework) CachedEpochsCtx(ctx context.Context, loader *data.Loader, startEpoch, n int) (float64, error) {
	return f.cachedEpochsFrom(ctx, loader, startEpoch, n, 0)
}

// cachedEpochsFrom resumes cached training at batch index startStep
// of the first epoch (later epochs run in full) — the entry point for
// elastic resume into the cache-only phase. Optimizer state restored
// from a snapshot (RestoreSnapshot) is imported into every replica
// before the first step so the update trajectory continues exactly.
func (f *Framework) cachedEpochsFrom(ctx context.Context, loader *data.Loader, startEpoch, n, startStep int) (float64, error) {
	if f.RedistributedBytes == 0 {
		return 0, fmt.Errorf("core: run Redistribute before cached epochs")
	}
	g, err := f.dpGroup()
	if err != nil {
		return 0, err
	}
	if f.cfg.OnSnapshot != nil && f.cfg.SnapshotEvery > 0 {
		g.OnStep = func(epoch, step int) { f.maybeSnapshot(epoch, step, g) }
	}
	g.Forward = func(rank int, mb *data.Batch, _ bool) *peft.Result {
		return f.cachedForward(g.Techs[rank], mb)
	}
	var loss float64
	for e := 0; e < n; e++ {
		start := 0
		if e == 0 {
			start = startStep
		}
		loss, err = g.TrainEpochFromCtx(ctx, loader, startEpoch+e, start)
		if err != nil {
			return 0, err
		}
		f.epochsRun++
		mEpochsCached.Inc()
	}
	// Adopt the final weights into the reference replica and back into
	// every hybrid lane, so a subsequent phase-1 pass (new data arriving,
	// another FineTune call) continues from the trained adapters instead
	// of discarding the cached-epoch progress.
	final := nn.FlattenParams(g.Techs[0].Trainable())
	nn.UnflattenParams(f.reference.Trainable(), final)
	for _, lane := range f.hybrid.Lanes {
		nn.UnflattenParams(lane.Tech.Trainable(), final)
	}
	return loss, nil
}

// dpGroup builds the cached-epoch data-parallel group: Stages×Lanes
// ranks over the framework's frozen backbone, each starting from the
// reference's adapter weights, on the configured fabric, with any
// optimizer state a restored snapshot left pending.
func (f *Framework) dpGroup() (*parallel.DPGroup, error) {
	flat := nn.FlattenParams(f.reference.Trainable())
	g := parallel.NewDPGroup(f.cfg.Stages*f.cfg.Lanes, func(rank int) (*peft.Parallel, train.Optimizer) {
		tech := peft.NewParallel(f.backbone, f.cfg.Opts)
		nn.UnflattenParams(tech.Trainable(), flat)
		if f.cfg.Adam {
			return tech, train.NewAdam(tech.Trainable(), f.cfg.LR)
		}
		return tech, train.NewSGD(tech.Trainable(), f.cfg.LR, 0, 0)
	})
	g.Regression = f.cfg.Regression
	g.StepTimeout = f.cfg.StepTimeout
	g.Trace = f.cfg.Trace
	g.TracePID = telemetry.PidDP
	g.Health = f.cfg.Health
	f.cfg.Trace.SetProcessName(telemetry.PidDP, "dp group (cached epochs)")
	if f.cfg.WrapTransport != nil {
		g.Endpoints = f.cfg.WrapTransport(parallel.FabricID{Kind: "dp", Index: 0}, g.Endpoints)
	}
	if f.pendingOpt != nil {
		if len(f.pendingOpt) != 1 {
			return nil, fmt.Errorf("core: snapshot has %d optimizer groups, cached phase needs 1", len(f.pendingOpt))
		}
		for r, opt := range g.Opts {
			st, ok := opt.(train.Stateful)
			if !ok {
				return nil, fmt.Errorf("core: rank %d optimizer cannot import snapshot state", r)
			}
			if err := st.LoadState(f.pendingOpt[0].Tensors, f.pendingOpt[0].Step); err != nil {
				return nil, fmt.Errorf("core: restore optimizer state: %w", err)
			}
		}
		f.pendingOpt = nil
	}
	return g, nil
}

// cachedForward is the cached-epoch forward of one side network: it
// assembles the batched tap tensors for a micro-batch from per-sample
// cache entries, then runs the side network over them. The samples the
// cache lacks (a capacity-bounded cache had no room for them) take one
// walk of the shared frozen backbone together — the walk is
// batch-invariant, so each row is the one a walk of that sample alone
// gives, just slower than a hit — and each is offered to the cache as
// its own entry. The batched taps are pooled; the result's Release
// returns them.
func (f *Framework) cachedForward(pa *peft.Parallel, mb *data.Batch) *peft.Result {
	out := make([]*tensor.Tensor, pa.NumTaps())
	// place copies a sample's rows into row i of pooled batch tensors:
	// one buffer per tap reused across steps via the pool, instead of a
	// Clone+Concat chain that reallocates the batch once per sample.
	place := func(i int, entry acache.Entry) {
		for ti, t := range entry {
			if out[ti] == nil {
				sh := t.Shape()
				bshape := append([]int{len(mb.IDs)}, sh[1:]...)
				out[ti] = tensor.GetTensor(bshape...)
			}
			n := t.Numel()
			copy(out[ti].Data[i*n:(i+1)*n], t.Data)
		}
	}
	var miss, lens []int // the batch rows the cache lacks, and their inputs
	var enc, dec [][]int
	for i, id := range mb.IDs {
		if entry, ok := f.cache.Get(id); ok {
			place(i, entry)
			continue
		}
		miss = append(miss, i)
		enc, dec, lens = append(enc, mb.Enc[i]), append(dec, mb.Dec[i]), append(lens, mb.Lens[i])
	}
	if len(miss) > 0 {
		taps := pa.BackboneTaps(enc, dec, lens)
		// Offer each sample to the cache as its own [1, …] entry, in batch
		// order, so admission meets the newcomers one by one as it would
		// from a walk per sample.
		for j, i := range miss {
			entry := make(acache.Entry, len(taps))
			for ti, t := range taps {
				e := tensor.GetTensor(append([]int{1}, t.Shape()[1:]...)...)
				n := e.Numel()
				copy(e.Data, t.Data[j*n:(j+1)*n])
				entry[ti] = e
			}
			place(i, entry)
			// A cache that took the entry may hold these very tensors
			// (MemoryStore does), so they stay out of the pool for good; a
			// cache that turned it away leaves them ours to return. This
			// rank alone handles the id in this step, so Has after Put
			// answers for this Put.
			id := mb.IDs[i]
			if err := f.cache.Put(id, entry); err == nil && f.cache.Has(id) {
				f.manifest.Observe(id, entry)
			} else {
				for _, t := range entry {
					tensor.PutTensor(t)
				}
			}
			atomic.AddInt64(&f.recomputed, 1)
			mCacheRecomputed.Inc()
		}
		for _, t := range taps {
			tensor.PutTensor(t)
		}
	}
	return &peft.Result{Logits: pa.ForwardFromTaps(out), Taps: out}
}

// SteadyStep runs one steady-state cached-activation training step on
// a replica: batched tap gathering from the cache, side-network
// forward, loss, backward, optimizer update, then the teardown that
// returns the graph, the loss value and the batched taps to the pool.
// It is the per-worker inner loop of CachedEpochsCtx without the two
// parts a data-parallel rank adds around it: the weighted backward seed
// (the shard's share of the batch; here the seed is 1) and the
// gradient all-reduce before the update. It is exported so the
// allocation benchmark and benchmark/'s core.steady_step_ms probe time
// the compute the epoch ≥ 2 path runs.
func (f *Framework) SteadyStep(pa *peft.Parallel, opt train.Optimizer, mb *data.Batch) float64 {
	res := f.cachedForward(pa, mb)
	loss := train.Loss(res.Logits, mb, false)
	autograd.Backward(loss)
	opt.Step()
	v := float64(loss.Value.Data[0])
	res.Release(loss)
	return v
}

// Recomputed returns how many cache misses were served by re-running
// the backbone during cached epochs (nonzero only with capacity-bounded
// caches).
func (f *Framework) Recomputed() int64 { return atomic.LoadInt64(&f.recomputed) }

// FineTune runs the complete PAC workflow: one hybrid epoch with cache
// fill, redistribution, then cache-only epochs. epochs is the total
// count (≥1). Returns the final epoch's mean loss. It is FineTuneFromCtx
// from the beginning with no way to give up — for examples, tests and
// the benchmark's warm-up; a caller that handles device failures or
// resumes uses FineTuneFromCtx.
func (f *Framework) FineTune(ds *data.Dataset, batch int, epochs int, seed int64) (float64, error) {
	return f.FineTuneFromCtx(context.Background(), ds, batch, epochs, seed, Cursor{})
}

// FineTuneFromCtx runs the PAC workflow from a resume cursor: a zero
// cursor is a fresh run; a cursor restored from a snapshot (after
// RestoreSnapshot and a cache salvage) continues mid-epoch from the
// last completed step instead of replaying finished work. seed must
// match the interrupted run's seed so the batch order replays
// identically. Device failures in either phase surface as a
// parallel.RankFailedError (inspect with parallel.AsRankFailed), so
// callers can drop the failed device, re-plan, and retry.
func (f *Framework) FineTuneFromCtx(ctx context.Context, ds *data.Dataset, batch int, epochs int, seed int64, from Cursor) (float64, error) {
	f.curSeed = seed
	loader := data.NewLoader(ds, batch, seed)
	if from.Epoch <= 0 {
		loss, err := f.phase1EpochFrom(ctx, loader, 0, from.Step)
		if err != nil {
			return 0, err
		}
		if epochs == 1 {
			// Still sync the reference replica for evaluation.
			flat := nn.FlattenParams(f.hybrid.Lanes[0].Tech.Trainable())
			nn.UnflattenParams(f.reference.Trainable(), flat)
			return loss, nil
		}
		if err := f.Redistribute(ds); err != nil {
			return 0, err
		}
		return f.cachedEpochsFrom(ctx, loader, 1, epochs-1, 0)
	}
	// Cache-only-phase resume: phase 1 completed before the crash; its
	// product (the cache) was salvaged rather than rebuilt.
	f.phase1Done = true
	if err := f.Redistribute(ds); err != nil {
		return 0, err
	}
	if from.Epoch >= epochs {
		return 0, fmt.Errorf("core: resume cursor epoch %d is past the %d-epoch run", from.Epoch, epochs)
	}
	return f.cachedEpochsFrom(ctx, loader, from.Epoch, epochs-from.Epoch, from.Step)
}

// Evaluate scores the trained adapters on a dataset using the reference
// replica.
func (f *Framework) Evaluate(ds *data.Dataset, batch int) train.EvalResult {
	return train.Evaluate(f.reference, ds, batch)
}

// Cache exposes the activation store (stats, size).
func (f *Framework) Cache() acache.Store { return f.cache }

// EpochsRun returns how many epochs have executed.
func (f *Framework) EpochsRun() int { return f.epochsRun }

// Reference returns the evaluation replica holding the trained adapters.
func (f *Framework) Reference() *peft.Parallel { return f.reference }

// PretrainBackbone trains a fresh model end-to-end on a corpus and
// returns it — the stand-in for the pretrained personal LLM that PAC
// adapts (the paper's Step 0 input). Pass the result as Config.Backbone.
func PretrainBackbone(cfg model.Config, ds *data.Dataset, epochs int, lr float32, seed int64) *model.Model {
	m := model.New(cfg)
	tech := peft.New(peft.Full, m, peft.Options{Seed: seed})
	tr := &train.Trainer{Tech: tech, Opt: train.NewAdam(tech.Trainable(), lr),
		Regression: ds.Regression, ClipNorm: 1}
	loader := data.NewLoader(ds, 16, seed)
	for ep := 0; ep < epochs; ep++ {
		tr.TrainEpoch(loader, ep)
	}
	return m
}

// AdoptReferenceWeights pushes the reference replica's adapter weights
// into every hybrid lane — call after loading a checkpoint into
// Reference() so subsequent training continues from those weights.
func (f *Framework) AdoptReferenceWeights() {
	flat := nn.FlattenParams(f.reference.Trainable())
	for _, lane := range f.hybrid.Lanes {
		nn.UnflattenParams(lane.Tech.Trainable(), flat)
	}
}

// rootSpan opens a traced root span on the orchestrator track, so
// snapshot/salvage/cache work carries a trace ID pac-trace can query
// like any request. No-op when tracing is off.
func (f *Framework) rootSpan(cat, name string) func() {
	_, end := f.cfg.Trace.RootSpanTC(cat, name, telemetry.PidOrch, 0)
	return end
}

// maybeSnapshot implements the SnapshotEvery cadence. It runs on the
// epoch-loop goroutine between steps, so the state it clones is
// consistent; g is the live DP group during cached epochs, nil during
// phase 1.
func (f *Framework) maybeSnapshot(epoch, step int, g *parallel.DPGroup) {
	f.sinceSnap++
	if f.sinceSnap < f.cfg.SnapshotEvery {
		return
	}
	f.sinceSnap = 0
	defer f.rootSpan("snapshot", "capture")()
	if g != nil {
		f.cfg.OnSnapshot(f.captureDP(g, epoch, step))
	} else {
		f.cfg.OnSnapshot(f.captureHybrid(epoch, step))
	}
	mSnapCaptures.Inc()
	health.Flight().Record("snapshot-capture", -1, -1, fmt.Sprintf("epoch %d step %d", epoch, step), 0)
}

func cloneTensors(ts []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ts))
	for i, t := range ts {
		out[i] = t.Clone()
	}
	return out
}

func cloneValues(vars []*autograd.Variable) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(vars))
	for i, v := range vars {
		out[i] = v.Value.Clone()
	}
	return out
}

func exportOpt(opt train.Optimizer) checkpoint.OptGroup {
	if st, ok := opt.(train.Stateful); ok {
		ts, step := st.StateTensors()
		return checkpoint.OptGroup{Step: step, Tensors: cloneTensors(ts)}
	}
	return checkpoint.OptGroup{}
}

func (f *Framework) baseSnapshot(epoch, step int) *checkpoint.Snapshot {
	return &checkpoint.Snapshot{
		Fingerprint: checkpoint.Fingerprint(f.cfg.Model),
		Seed:        f.curSeed,
		Epoch:       epoch,
		// step is the 0-based index of the batch just completed; the
		// cursor points at the next one.
		Step:      step + 1,
		Stages:    f.cfg.Stages,
		Lanes:     f.cfg.Lanes,
		CacheTaps: f.manifest.Taps(),
		CacheSums: f.manifest.Sums(),
	}
}

// captureHybrid snapshots mid-phase-1 state: lane 0 speaks for all
// lanes (the cross-lane AllReduce keeps them bit-identical), with one
// optimizer group per pipeline stage.
func (f *Framework) captureHybrid(epoch, step int) *checkpoint.Snapshot {
	snap := f.baseSnapshot(epoch, step)
	lane := f.hybrid.Lanes[0]
	snap.Adapters = cloneValues(lane.Tech.Trainable())
	for s := 0; s < lane.Stages(); s++ {
		snap.OptGroups = append(snap.OptGroups, exportOpt(lane.Opts[s]))
	}
	return snap
}

// captureDP snapshots mid-cached-phase state: rank 0 speaks for all
// replicas (the data-parallel invariant), one optimizer group.
func (f *Framework) captureDP(g *parallel.DPGroup, epoch, step int) *checkpoint.Snapshot {
	snap := f.baseSnapshot(epoch, step)
	snap.Adapters = cloneValues(g.Techs[0].Trainable())
	snap.OptGroups = []checkpoint.OptGroup{exportOpt(g.Opts[0])}
	return snap
}

// RestoreSnapshot installs a snapshot's training state into a freshly
// built framework: adapter weights into the reference replica and
// every lane, optimizer moments into the matching optimizers (phase-1
// snapshots carry one group per stage, imported directly; cached-phase
// snapshots carry one group, staged for the DP replicas built at
// CachedEpochsCtx time), and the cache manifest for salvage. The model
// fingerprint and stage count must match the snapshot's.
func (f *Framework) RestoreSnapshot(s *checkpoint.Snapshot) error {
	defer f.rootSpan("snapshot", "restore")()
	if s.Fingerprint != checkpoint.Fingerprint(f.cfg.Model) {
		return fmt.Errorf("core: snapshot model fingerprint mismatch")
	}
	ref := f.reference.Trainable()
	if len(s.Adapters) != len(ref) {
		return fmt.Errorf("core: snapshot has %d adapter tensors, framework has %d", len(s.Adapters), len(ref))
	}
	for i, p := range ref {
		if !tensor.SameShape(p.Value, s.Adapters[i]) {
			return fmt.Errorf("core: snapshot adapter %d shape %v, framework has %v", i, s.Adapters[i].Shape(), p.Value.Shape())
		}
	}
	for i, p := range ref {
		p.Value.CopyFrom(s.Adapters[i])
	}
	f.AdoptReferenceWeights()
	if s.CacheSums != nil {
		taps := s.CacheTaps
		if taps == 0 {
			taps = f.manifest.Taps()
		}
		f.manifest = acache.ManifestFromSums(taps, s.CacheSums)
		f.builder.manifest = f.manifest
	}
	if s.Epoch <= 0 {
		// Mid-phase-1 snapshot: per-stage optimizer groups.
		if s.Stages != f.cfg.Stages {
			return fmt.Errorf("core: snapshot captured under %d stages, framework has %d", s.Stages, f.cfg.Stages)
		}
		for _, lane := range f.hybrid.Lanes {
			if len(s.OptGroups) != lane.Stages() {
				return fmt.Errorf("core: snapshot has %d optimizer groups, pipeline has %d stages", len(s.OptGroups), lane.Stages())
			}
			for st := 0; st < lane.Stages(); st++ {
				stateful, ok := lane.Opts[st].(train.Stateful)
				if !ok {
					return fmt.Errorf("core: stage %d optimizer cannot import snapshot state", st)
				}
				if err := stateful.LoadState(s.OptGroups[st].Tensors, s.OptGroups[st].Step); err != nil {
					return fmt.Errorf("core: restore stage %d optimizer: %w", st, err)
				}
			}
		}
	} else if len(s.OptGroups) > 0 {
		f.phase1Done = true
		f.pendingOpt = s.OptGroups
	} else {
		f.phase1Done = true
	}
	mSnapRestores.Inc()
	health.Flight().Record("snapshot-restore", -1, -1, fmt.Sprintf("epoch %d step %d", s.Epoch, s.Step), 0)
	return nil
}

// SalvageCache verifies the surviving activation-cache entries against
// the manifest and recomputes only the damaged or missing samples'
// taps through the frozen backbone — O(lost shard), not O(whole
// epoch). The expected coverage follows the resume cursor: mid-phase-1,
// only the batches already trained should be cached (the replayed
// remainder refills itself); from the cached phase on, the full
// dataset.
func (f *Framework) SalvageCache(ds *data.Dataset, batch int, seed int64, from Cursor) (acache.SalvageReport, error) {
	defer f.rootSpan("cache", "salvage")()
	var want []int
	if from.Epoch <= 0 {
		loader := data.NewLoader(ds, batch, seed)
		batches := loader.Epoch(0)
		n := from.Step
		if n > len(batches) {
			n = len(batches)
		}
		for _, b := range batches[:n] {
			want = append(want, b.IDs...)
		}
	} else {
		for _, ex := range ds.Examples {
			want = append(want, ex.ID)
		}
	}
	byID := make(map[int]data.Example, ds.Len())
	for _, ex := range ds.Examples {
		byID[ex.ID] = ex
	}
	recompute := func(id int) (acache.Entry, error) {
		ex, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("core: sample %d not in dataset", id)
		}
		b := data.BatchOf([]data.Example{ex})
		return acache.Entry(f.reference.BackboneTaps(b.Enc, b.Dec, b.Lens)), nil
	}
	rep, err := acache.Salvage(f.cache, want, f.manifest, recompute)
	if err == nil {
		health.Flight().Record("salvage", -1, -1,
			fmt.Sprintf("%d verified %d recomputed", rep.Verified, rep.Recomputed), 0)
	}
	return rep, err
}
