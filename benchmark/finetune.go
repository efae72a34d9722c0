package main

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"pac/internal/acache"
	"pac/internal/core"
	"pac/internal/data"
	"pac/internal/health"
	"pac/internal/peft"
	"pac/internal/telemetry"
	"pac/internal/tensor"
)

// ftSpec is what differs between the two fine-tune workloads.
type ftSpec struct {
	stages, lanes int
	evict         bool    // bound the cache to half of what the data set needs
	lossCeiling   float64 // the final loss must end below this
	jobEpochs     int     // cached epochs of the job work_per_s prices
}

// finetune runs the paper's workflow on the real engines: one hybrid
// epoch that fills the activation cache, the redistribution, then
// cached data-parallel epochs until the window closes.
type finetune struct {
	b    *bench
	spec ftSpec

	ds      *data.Dataset
	f       *core.Framework
	bounded *acache.Bounded // evict only
	timed   *timedStore     // traced only
	clock   *stepClock
	newSec  float64

	loss1, lossA, lossB           float64
	phase1S, redisS, cachedS      float64 // walls, less the yardstick's own time
	otherS                        float64 // non-step time of one job, at nominal speed
	wallS, calibS                 float64 // the window, and the yardstick's share of it
	cachedEpochs                  int
	first                         cacheCounts // after the hybrid epoch and the first cached epoch: a fixed operation count
	firstRecomputed, firstEvicted int64
}

// cacheCounts are the cache's own counters at one instant.
type cacheCounts struct{ gets, puts, hits, misses int64 }

func newFinetune(b *bench, spec ftSpec) (*finetune, error) {
	return &finetune{b: b, spec: spec}, tensor.SetBackend("generic")
}

// pac builds a framework over a fresh cache. sink and trace may be nil.
func (w *finetune) pac(samples int, sink health.Sink, trace *telemetry.Tracer) (*core.Framework, *acache.Bounded, *timedStore) {
	var store acache.Store = acache.NewMemoryStore()
	var bounded *acache.Bounded
	if w.spec.evict {
		full := int64(samples) * cacheEntryBytes(benchModel(), seqLen)
		bounded = acache.NewBounded(store, full/2)
		store = bounded
	}
	var timed *timedStore
	if w.b.traced() && sink != nil {
		timed = &timedStore{Store: store, rec: w.b.rec}
		store = timed
	}
	f := core.New(core.Config{
		Model: benchModel(), Opts: peft.Options{Reduction: reduction},
		Stages: w.spec.stages, Lanes: w.spec.lanes, LR: learnRate, Adam: true,
		Cache: store, Health: sink, Trace: trace,
	})
	return f, bounded, timed
}

// setup generates the data, runs the throw-away warm-up workflow (so
// that pools, kernel workers and page tables are warm and set-up is
// seconds of deterministic compute, not page faults) and builds the
// framework the window will drive.
func (w *finetune) setup() error {
	w.ds = genDataset(w.b.opt.seed, w.b.sc.ftSamples)
	warm := genDataset(w.b.opt.seed+1_000_003, w.b.sc.ftWarm)
	wf, _, _ := w.pac(warm.Len(), nil, nil)
	if _, err := wf.FineTune(warm, batchSize, 2, w.b.opt.seed); err != nil {
		return fmt.Errorf("warm-up fine-tune: %w", err)
	}
	w.clock = newStepClock(w.b.rec, w.b.tracer, w.b.cal, w.spec.stages)
	t0 := time.Now()
	w.f, w.bounded, w.timed = w.pac(w.ds.Len(), w.clock, w.b.tracer)
	w.newSec = time.Since(t0).Seconds()
	return nil
}

// phase opens the benchmark span around one call into core and points
// the engine and cache spans at it.
func (w *finetune) phase(name string, root int) int {
	if !w.b.traced() {
		return 0
	}
	w.clock.setGate(true) // phase spans are recorded whatever block the gate is in
	id := w.b.rec.begin(name, root, -1, 0)
	w.clock.setParent(id)
	if w.timed != nil {
		w.timed.parent.Store(int64(id))
	}
	return id
}

func (w *finetune) window() error {
	ctx := context.Background()
	cal := w.b.cal
	loader := data.NewLoader(w.ds, batchSize, w.b.opt.seed)
	cal.point()
	start := time.Now()
	spent0 := cal.spentTotal()
	deadline := start.Add(time.Duration(w.b.opt.seconds * float64(time.Second)))
	root := w.b.rec.begin("window", 0, -1, 0)

	sp := w.phase("core.Phase1Epoch", root)
	loss1, err := w.f.Phase1EpochCtx(ctx, loader, 0)
	w.b.rec.end(sp)
	if err != nil {
		return fmt.Errorf("hybrid epoch: %w", err)
	}
	t1 := time.Now()
	spent1 := cal.spentTotal()

	sp = w.phase("core.Redistribute", root)
	err = w.f.Redistribute(w.ds)
	w.b.rec.end(sp)
	if err != nil {
		return err
	}
	t2 := time.Now()

	// The first cached epoch runs alone: it prices an epoch, so that the
	// second call can be given the number of epochs that fills the rest
	// of the window, and it ends a fixed operation count (one hybrid
	// epoch, one cached epoch) at which the exact counters are read.
	sp = w.phase("core.CachedEpochs", root)
	lossA, err := w.f.CachedEpochsCtx(ctx, loader, 1, 1)
	w.b.rec.end(sp)
	if err != nil {
		return fmt.Errorf("first cached epoch: %w", err)
	}
	t3 := time.Now()
	spent3 := cal.spentTotal()
	w.first = w.counts()
	w.firstRecomputed = w.f.Recomputed()
	if w.bounded != nil {
		w.firstEvicted = w.bounded.Evicted()
	}

	lossB := lossA
	epochs := int(math.Round(deadline.Sub(t3).Seconds() / t3.Sub(t2).Seconds()))
	if epochs < 0 {
		epochs = 0
	}
	if epochs > 0 {
		sp = w.phase("core.CachedEpochs", root)
		lossB, err = w.f.CachedEpochsCtx(ctx, loader, 2, epochs)
		w.b.rec.end(sp)
		if err != nil {
			return fmt.Errorf("cached epochs: %w", err)
		}
	}
	t4 := time.Now()
	w.b.rec.end(root)
	cal.point()

	w.loss1, w.lossA, w.lossB = loss1, lossA, lossB
	w.phase1S = (t1.Sub(start) - (spent1 - spent0)).Seconds()
	w.redisS = t2.Sub(t1).Seconds()
	w.cachedS = (t4.Sub(t2) - (cal.spentTotal() - spent1)).Seconds()
	w.wallS = t4.Sub(start).Seconds()
	w.calibS = (cal.spentTotal() - spent0).Seconds()
	w.cachedEpochs = 1 + epochs

	// What one job spends outside engine steps: the hybrid epoch's
	// remainder, the redistribution, and one CachedEpochs call's
	// remainder (building the data-parallel group, shuffling, adopting
	// the final weights), each at the machine speed of its own interval.
	perEpoch := (w.ds.Len() + batchSize - 1) / batchSize
	firstCall := (t3.Sub(t2) - (spent3 - spent1)).Seconds() - sum(w.clock.seconds("dp")[:perEpoch])
	w.otherS = (w.phase1S-sum(w.clock.seconds("hybrid")))*cal.speed(start, t1) +
		w.redisS*cal.speed(t1, t2) + firstCall*cal.speed(t2, t3)
	return nil
}

func (w *finetune) counts() cacheCounts {
	st := w.f.Cache().Stats()
	return cacheCounts{gets: st.Hits + st.Misses, puts: st.Puts, hits: st.Hits, misses: st.Misses}
}

func (w *finetune) finish() {
	b := w.b
	hybrid, dp := w.clock.seconds("hybrid"), w.clock.seconds("dp")
	b.attempted += int64(len(hybrid) + len(dp))
	samples := w.ds.Len() * (1 + w.cachedEpochs)
	b.ops["hybrid_steps"] = int64(len(hybrid))
	b.ops["cached_steps"] = int64(len(dp))
	b.ops["cached_epochs"] = int64(w.cachedEpochs)
	b.ops["samples"] = int64(samples)
	fmt.Printf("loss: hybrid epoch %.4f, first cached epoch %.4f, last cached epoch %.4f\n", w.loss1, w.lossA, w.lossB)

	for name, l := range map[string]float64{"hybrid": w.loss1, "first cached": w.lossA, "last cached": w.lossB} {
		b.check(!math.IsNaN(l) && !math.IsInf(l, 0), "%s epoch loss is not finite: %v", name, l)
	}
	b.check(w.lossB < w.loss1, "final loss %.4f is not below the hybrid-epoch loss %.4f", w.lossB, w.loss1)
	ceiling := w.spec.lossCeiling
	if b.opt.smoke { // too few steps to get far; the direction is still checked above
		ceiling = 1
	}
	b.check(w.lossB < ceiling, "final loss %.4f is above the ceiling %.2f", w.lossB, ceiling)
	all := w.counts()
	recomputed := w.f.Recomputed()
	if w.spec.evict {
		b.check(recomputed > 0 && w.bounded.Evicted() > 0,
			"the bounded cache was bypassed: %d recomputed, %d evicted", recomputed, w.bounded.Evicted())
	} else {
		b.check(recomputed == 0 && all.misses == 0,
			"the unbounded cache missed: %d recomputed, %d misses", recomputed, all.misses)
	}
	b.check(len(hybrid) == (w.ds.Len()+batchSize-1)/batchSize, "hybrid epoch ran %d steps", len(hybrid))

	// Every duration below is at nominal machine speed (see calib.go).
	hybridN, dpN := w.clock.nominal("hybrid"), w.clock.nominal("dp")
	n := float64(w.ds.Len())
	rateA, rateB := batchSize/median(hybridN), batchSize/median(dpN)
	job := n/rateA + float64(w.spec.jobEpochs)*n/rateB + w.otherS
	b.e2e["work_per_s"] = n * float64(1+w.spec.jobEpochs) / job
	b.e2e["phase_a_per_s"] = rateA
	b.e2e["phase_b_per_s"] = rateB
	var ms []float64
	for _, s := range append(hybridN, dpN...) {
		ms = append(ms, s*1e3)
	}
	b.e2e["op_p50_ms"] = percentile(ms, 50)
	b.e2e["op_p90_ms"] = percentile(ms, 90)
	fmt.Printf("steps: %d hybrid + %d cached over %d cached epochs; %d samples in %.3f s\n",
		len(hybrid), len(dp), w.cachedEpochs, samples, w.wallS)
	fmt.Printf("as measured: %.2f samples/s hybrid, %.2f cached (batch ÷ median step), %.2f over the window\n",
		batchSize/median(hybrid), batchSize/median(dp), float64(samples)/(w.wallS-w.calibS))
	if !b.traced() {
		return
	}

	L := b.layer
	L["core.new_s"] = w.newSec
	L["core.phase1_s"] = w.phase1S
	L["core.redistribute_s"] = w.redisS
	L["core.cached_s"] = w.cachedS
	L["core.recomputed"] = float64(w.firstRecomputed)
	c := w.clock
	var busy float64
	for s, v := range c.ppBusy {
		L["parallel.pp_stage"+strconv.Itoa(s)+"_busy_s"] = v
		busy += v
	}
	L["parallel.pp_idle_share"] = 1 - busy/(float64(w.spec.stages*w.spec.lanes)*w.phase1S)
	L["parallel.pp_bytes"] = float64(c.ppBytes)
	L["parallel.hybrid_step_p50_ms"] = median(hybridN) * 1e3
	L["parallel.dp_compute_s"] = c.dpCompute
	L["parallel.dp_step_s"] = c.dpStep
	if c.dpStep > 0 {
		L["parallel.dp_sync_share"] = 1 - c.dpCompute/c.dpStep
	}
	L["parallel.dp_bytes"] = float64(c.dpBytes)

	L["acache.get_calls"] = float64(w.first.gets)
	L["acache.put_calls"] = float64(w.first.puts)
	L["acache.hits"] = float64(w.first.hits)
	L["acache.misses"] = float64(w.first.misses)
	L["acache.evicted"] = float64(w.firstEvicted)
	L["acache.get_s"] = float64(w.timed.getNs.Load()) / 1e9
	L["acache.put_s"] = float64(w.timed.putNs.Load()) / 1e9
	if all.gets > 0 {
		L["acache.hit_ratio"] = float64(all.hits) / float64(all.gets)
	}
	L["acache.peak_bytes"] = float64(w.timed.peak.Load())

	// Coverage: the share of the window (less the yardstick) spent inside
	// engine steps and the redistribution. The rest is the self time of
	// the phase calls: building the data-parallel group, shuffling
	// batches, adopting weights. Step times come from the engines'
	// reports, so the steps whose spans the closed gate skipped count too.
	L["trace.coverage_share"] = (sum(hybrid) + sum(dp) + w.redisS) / (w.wallS - w.calibS)
	L["trace.overhead_share"] = c.overhead()
}

// stepClock is the health.Sink both runs pass to core: the engines'
// own per-step reports are the only public per-step seam, so they give
// the step times that the medians are taken over. In the traced run it
// also turns the reports into spans and opens and closes the trace
// gate on alternate blocks of steps.
type stepClock struct {
	mu      sync.Mutex
	rec     *recorder
	tracer  *telemetry.Tracer
	cal     *calibrator
	parent  int
	opID    int64
	steps   map[string][]stepSample
	pending []span

	ppBusy            []float64 // per stage, summed over lanes
	ppBytes           int64
	dpCompute, dpStep float64 // summed over ranks
	dpBytes           int64
}

// Steps per block: the trace gate flips, and the yardstick is read,
// after every hybrid step (half a second) and every eighth cached step.
var stepBlock = map[string]int{"hybrid": 1, "dp": 8}

type stepSample struct {
	sec    float64
	end    time.Time
	traced bool
}

func newStepClock(rec *recorder, tracer *telemetry.Tracer, cal *calibrator, stages int) *stepClock {
	return &stepClock{rec: rec, tracer: tracer, cal: cal, steps: map[string][]stepSample{},
		ppBusy: make([]float64, stages)}
}

func (c *stepClock) setParent(id int) {
	c.mu.Lock()
	c.parent = id
	c.mu.Unlock()
}

func (c *stepClock) ReportStep(s health.StepStats) {
	now := time.Now()
	ago := func(sec float64) time.Time { return now.Add(-time.Duration(sec * float64(time.Second))) }
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case s.Engine == "pp":
		c.ppBusy[s.Stage] += s.FwdSec + s.BwdSec
		c.ppBytes += s.Bytes
		// A stage's busy time is scattered through the step; the span
		// shows its amount, placed at the end of the step.
		c.pend("parallel.pp_stage"+strconv.Itoa(s.Stage), s.Lane*len(c.ppBusy)+s.Stage, ago(s.StepSec), now)
	case s.Engine == "dp" && s.Rank >= 0:
		c.dpCompute += s.FwdSec
		c.dpStep += s.StepSec
		c.dpBytes += s.Bytes
		computed := ago(s.StepSec - s.FwdSec)
		c.pend("parallel.dp_compute", s.Rank, ago(s.StepSec), computed)
		c.pend("parallel.dp_sync", s.Rank, computed, now)
	default: // one whole hybrid or data-parallel step
		c.steps[s.Engine] = append(c.steps[s.Engine], stepSample{s.StepSec, now, c.rec.enabled()})
		blockEnd := len(c.steps[s.Engine])%stepBlock[s.Engine] == 0
		if c.rec != nil {
			id := c.rec.add("parallel."+s.Engine+"_step", c.parent, c.opID, 0, ago(s.StepSec), now)
			for _, p := range c.pending {
				c.rec.add(p.Name, id, c.opID, p.Tid, c.rec.t0.Add(p.Start), c.rec.t0.Add(p.End))
			}
			c.pending = c.pending[:0]
			c.opID++
			if blockEnd {
				c.setGate((len(c.steps[s.Engine])/stepBlock[s.Engine])%2 == 0)
			}
		}
		if blockEnd {
			// The engine is between steps and every rank has joined, so
			// the yardstick has the machine to itself.
			c.mu.Unlock()
			c.cal.point()
			c.mu.Lock()
		}
	}
}

// setGate opens or closes tracing for the steps that follow: the
// benchmark's own spans and the sampling of the program's tracer.
func (c *stepClock) setGate(open bool) {
	c.rec.on.Store(open)
	if open {
		c.tracer.SetSampleRate(1)
	} else {
		c.tracer.SetSampleRate(0)
	}
}

// pend keeps a rank's or stage's interval until its whole-step report
// arrives and gives it a parent.
func (c *stepClock) pend(name string, tid int, start, end time.Time) {
	if c.rec.enabled() {
		c.pending = append(c.pending, span{Name: name, Tid: tid, Start: start.Sub(c.rec.t0), End: end.Sub(c.rec.t0)})
	}
}

func (c *stepClock) seconds(engine string) []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, len(c.steps[engine]))
	for i, s := range c.steps[engine] {
		out[i] = s.sec
	}
	return out
}

// nominal returns an engine's step times scaled to nominal machine
// speed, by the speed of the phase they ran in.
func (c *stepClock) nominal(engine string) []float64 {
	c.mu.Lock()
	samples := append([]stepSample(nil), c.steps[engine]...)
	c.mu.Unlock()
	if len(samples) == 0 {
		return nil
	}
	first := samples[0].end.Add(-time.Duration(samples[0].sec * float64(time.Second)))
	speed := c.cal.speed(first, samples[len(samples)-1].end)
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.sec * speed
	}
	return out
}

// overhead compares the median step with the trace gate open against the
// median step with it closed, per engine, weighted by engine time.
func (c *stepClock) overhead() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var weighted, wall float64
	for _, samples := range c.steps {
		var on, off []float64
		for _, s := range samples {
			if s.traced {
				on = append(on, s.sec)
			} else {
				off = append(off, s.sec)
			}
		}
		if len(on) == 0 || len(off) == 0 {
			continue
		}
		w := sum(on) + sum(off)
		weighted += w * (median(on)/median(off) - 1)
		wall += w
	}
	if wall == 0 {
		return 0
	}
	return weighted / wall
}
