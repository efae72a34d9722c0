package core

import (
	"math"

	"pac/internal/cluster"
	"pac/internal/costmodel"
	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/planner"
	"pac/internal/sim"
)

// Engine identifies the training system being simulated.
type Engine int

// The paper's four systems (Table 2 columns).
const (
	Standalone Engine = iota // single device
	EcoFL                    // pure pipeline parallelism (Ye et al. 2022)
	EDDL                     // pure data parallelism (Hao & Zhang 2021)
	PAC                      // hybrid parallelism + activation cache (this paper)
)

func (e Engine) String() string {
	switch e {
	case Standalone:
		return "Standalone"
	case EcoFL:
		return "Eco-FL"
	case EDDL:
		return "EDDL"
	case PAC:
		return "PAC"
	}
	return "unknown"
}

// SimSpec describes one simulated fine-tuning job.
type SimSpec struct {
	Model   model.Config
	Kind    peft.Kind
	Opts    peft.Options
	Engine  Engine
	Cluster cluster.Cluster
	Batch   int
	EncSeq  int
	DecSeq  int
	// Samples and Epochs define the workload (a data.Spec or custom).
	Samples int
	Epochs  int
	// UseCache enables the activation cache for ParallelAdapters on
	// engines that support it (PAC and Standalone).
	UseCache bool
	// CacheF16 stores cached activations at half precision, halving the
	// cache footprint, the flash-streaming volume, and the
	// redistribution traffic.
	CacheF16 bool
	// DiskBytesPerSec models the flash storage the cache streams from
	// during cached epochs; 0 = 200 MB/s (eMMC-class).
	DiskBytesPerSec float64
}

// SimResult reports the simulated outcome.
type SimResult struct {
	OOM   bool
	Hours float64
	// Phase1StepSec / CachedStepSec are per-mini-batch times.
	Phase1StepSec float64
	CachedStepSec float64
	// RedistributionSec is the phase-transition collective (params +
	// cache shards).
	RedistributionSec float64
	// PeakMemory is the worst per-device footprint across the job.
	PeakMemory costmodel.Memory
	// WeightMemory is the per-device resident parameter bytes (paper
	// Figure 9b).
	WeightMemory int64
	// Throughput is trained samples per second during phase 1.
	Throughput float64
	// Plan is the parallel configuration used (nil stages for OOM).
	Plan planner.Plan
	// CacheBytes is the total activation-cache payload.
	CacheBytes int64
}

// Simulate runs one fine-tuning job in virtual time.
func Simulate(spec SimSpec) SimResult {
	if spec.DiskBytesPerSec == 0 {
		spec.DiskBytesPerSec = 400e6
	}
	costs := costmodel.Costs{
		Cfg: spec.Model, Kind: spec.Kind, Opts: spec.Opts,
		EncSeq: spec.EncSeq, DecSeq: spec.DecSeq,
	}
	blocks := costs.Blocks()
	in := planner.Input{Blocks: blocks, Cluster: spec.Cluster, MiniBatch: spec.Batch}

	var plan planner.Plan
	switch spec.Engine {
	case Standalone:
		// A single device trains with full gradient accumulation: one
		// sample per micro-batch minimizes the activation working set.
		in.Cluster = cluster.Cluster{Devices: spec.Cluster.Devices[:1]}
		in.Micro = spec.Batch
		p, err := planner.New(in)
		if err != nil {
			return SimResult{OOM: true}
		}
		plan = p
	case EcoFL:
		plan = planner.PipelineOnly(in)
		if math.IsInf(plan.StepSec, 1) {
			return SimResult{OOM: true}
		}
	case EDDL:
		plan = planner.DataParallel(in)
		if math.IsInf(plan.StepSec, 1) {
			return SimResult{OOM: true}
		}
	case PAC:
		p, err := planner.New(in)
		if err != nil {
			return SimResult{OOM: true}
		}
		plan = p
	}

	ev, ok := planner.Evaluate(plan, in)
	if !ok {
		return SimResult{OOM: true}
	}
	res := SimResult{Plan: plan, Phase1StepSec: plan.StepSec, Throughput: plan.Throughput()}
	for _, m := range ev.PeakMemory {
		if m.Total() > res.PeakMemory.Total() {
			res.PeakMemory = m
		}
		if m.Weights > res.WeightMemory {
			res.WeightMemory = m.Weights
		}
	}

	stepsPerEpoch := math.Ceil(float64(spec.Samples) / float64(plan.SamplesPerStep()))
	phase1Sec := stepsPerEpoch * plan.StepSec

	useCache := spec.UseCache && spec.Kind == peft.ParallelAdapters &&
		(spec.Engine == PAC || spec.Engine == Standalone) && spec.Epochs > 1

	totalSec := phase1Sec
	if !useCache {
		totalSec = phase1Sec * float64(spec.Epochs)
	} else {
		res.CacheBytes = costs.TapBytesPerSample() * int64(spec.Samples)
		if spec.CacheF16 {
			res.CacheBytes /= 2
		}
		dev := spec.Cluster.Devices[0]
		n := spec.Cluster.Size()
		if spec.Engine == Standalone {
			n = 1
		}
		// Redistribution (paper §5.2): adapter parameters broadcast to
		// every device, and each sample's tap shards — spread across the
		// S pipeline stages during phase 1 — reassemble on the sample's
		// home device. Devices exchange in parallel over the switched
		// LAN, so each moves ≈ (S−1)/S of its 1/n cache share.
		paramBytes := costs.TrainableBytes()
		res.RedistributionSec = sim.BroadcastTime(paramBytes, n, dev.BytesPerSec(), dev.LinkLatencySec)
		if s := len(plan.Stages); s > 1 && n > 1 {
			shardBytes := float64(res.CacheBytes) * float64(s-1) / float64(s) / float64(n)
			res.RedistributionSec += shardBytes / dev.BytesPerSec()
		}

		// Cached epochs: pure data parallelism over the side network.
		cached := costs
		cached.Cached = true
		cBlocks := cached.Blocks()
		perDev := float64(spec.Batch) / float64(n)
		compute := make([]float64, n)
		var worstMem costmodel.Memory
		for i := 0; i < n; i++ {
			d := spec.Cluster.Devices[i]
			c := (costmodel.FwdSec(cBlocks, 1, d) + costmodel.BwdSec(cBlocks, 1, d)) * perDev
			// Streaming the micro-batch's taps from flash (paper: "tens of
			// milliseconds" per micro-batch); prefetch overlaps the read
			// with compute.
			tapBytes := float64(costs.TapBytesPerSample())
			if spec.CacheF16 {
				tapBytes /= 2
			}
			disk := tapBytes * perDev / spec.DiskBytesPerSec
			compute[i] = math.Max(c, disk)
			mem := costmodel.StageMemory(cBlocks, int(math.Ceil(perDev)), 1)
			if mem.Total() > worstMem.Total() {
				worstMem = mem
			}
			if mem.Total() > d.MemoryBytes {
				return SimResult{OOM: true}
			}
		}
		cachedTotals := costmodel.Totals(cBlocks)
		res.CachedStepSec = sim.DataParallelStep(compute, cachedTotals.TrainBytes,
			dev.BytesPerSec(), dev.LinkLatencySec)
		cachedEpochSec := math.Ceil(float64(spec.Samples)/float64(spec.Batch)) * res.CachedStepSec
		totalSec = phase1Sec + res.RedistributionSec + float64(spec.Epochs-1)*cachedEpochSec
		// Peak memory across phases: cached-phase footprint replaces the
		// backbone-resident phase on devices after redistribution, but the
		// job's peak is the max of both.
		if worstMem.Total() > res.PeakMemory.Total() {
			res.PeakMemory = worstMem
		}
	}
	res.Hours = totalSec / 3600
	return res
}

// SimulateTask runs Simulate for one of the paper's GLUE workloads.
func SimulateTask(specBase SimSpec, task data.Task) SimResult {
	ts := data.SpecFor(task)
	specBase.Samples = ts.TrainSize
	specBase.Epochs = ts.Epochs
	return Simulate(specBase)
}

// PerSampleTrainSec returns the steady-state training time per sample —
// the quantity in the paper's Figure 8a. For cache-enabled Parallel
// Adapters it is the cached-epoch step time.
func PerSampleTrainSec(res SimResult, spec SimSpec) float64 {
	if res.OOM {
		return math.Inf(1)
	}
	if res.CachedStepSec > 0 {
		return res.CachedStepSec / float64(spec.Batch)
	}
	return res.Phase1StepSec / float64(res.Plan.SamplesPerStep())
}
