// Command pac-train runs real PAC fine-tuning end to end on in-process
// goroutine devices: a trainable transformer backbone with Parallel
// Adapters, one hybrid data+pipeline epoch filling the activation
// cache, then cache-only data-parallel epochs — the full paper workflow
// at laptop scale.
//
// The command is built as a recovery supervisor around the training
// loop. With -snapshot-every K the framework captures a consistent
// training snapshot (adapter weights, optimizer moments, resume cursor,
// cache manifest) after every K-th step; -snapshot-dir persists them
// durably off the training path. When a device dies mid-run (inject one
// deterministically with -crash-device / -crash-after / -crash-phase),
// the supervisor marks it dead in the liveness tracker, re-runs the
// hybrid-parallelism planner on the survivors, restores the latest
// snapshot, salvages the surviving activation cache — recomputing only
// lost or corrupt entries, never rebuilding — and resumes from the last
// completed step. -resume does the same across process restarts.
//
// Usage:
//
//	pac-train [-task mrpc|sts-b|sst-2|qnli] [-samples N] [-epochs N]
//	          [-stages N] [-lanes N] [-batch N] [-lr F] [-cache-dir DIR]
//	          [-snapshot-every N] [-snapshot-dir DIR] [-resume]
//	          [-crash-device N] [-crash-after OPS] [-crash-phase hybrid|cached]
//	          [-max-recoveries N] [-step-timeout D] [-fault-drop P]
//	          [-slow-lane N] [-slow-delay D]
//	          [-replan-on-drift] [-straggler-factor F]
//	          [-flight-size N] [-flight-out FILE]
//	          [-telemetry-addr HOST:PORT] [-trace-out FILE]
//	          [-trace-sample P] [-trace-cap N]
//	          [-mem-budget BYTES] [-mem-warn-frac F] [-mem-crit-frac F]
//	          [-mem-report FILE]
//
// -telemetry-addr serves live introspection over HTTP while the run is
// in flight: /metrics (Prometheus text), /debug/vars (JSON),
// /debug/pprof, /debug/flight (the flight-recorder ring as JSON) and
// /debug/mem (the memory ledger's per-subsystem byte breakdown,
// watermarks, ring-buffered timeline, and per-device views;
// ?format=chrome renders the timeline as Chrome counter events).
// -mem-budget arms the ledger's pressure watermarks: a warn crossing
// records a flight event and counts in pac_mem_pressure_total, a
// critical crossing additionally sheds activation-cache entries
// until the total is back at the warn watermark, and the cache stays
// at that size (shed samples are recomputed, not re-admitted).
// -mem-report writes the run's per-account peak bytes in the committed
// BENCH_mem.json shape so CI can gate memory regressions.
// -trace-out writes the run's real timeline — per-stage
// forward/backward micro-batch spans, AllReduce rounds, snapshot and
// salvage events — as Chrome/Perfetto JSON (load it at ui.perfetto.dev).
// Each training step roots a causal trace that the micro-batch spans
// parent into across devices; -trace-sample records a fraction of
// steps, -trace-cap bounds the span ring (pac-trace analyzes the dump
// offline: critical path, per-device busy time, pipeline bubbles).
//
// An online health monitor watches every attempt: engines report
// per-step timings, the monitor compares lanes and ranks against the
// healthy median and against the planner's analytic per-stage
// predictions, and prints an ALERT when one straggles or drifts. With
// -replan-on-drift an alert additionally quarantines the slow lane and
// triggers a re-plan fed by the measured per-stage profile (inject a
// deterministic straggler with -slow-lane / -slow-delay to watch this
// happen). A crash flight recorder keeps the last -flight-size
// structured events (steps, retries, faults, alerts, snapshots,
// re-plans) and dumps them on panic, on unrecoverable failure, to
// -flight-out, and live over /debug/flight.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pac/internal/acache"
	"pac/internal/checkpoint"
	"pac/internal/cluster"
	"pac/internal/core"
	"pac/internal/costmodel"
	"pac/internal/data"
	"pac/internal/fleet"
	"pac/internal/health"
	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/parallel"
	"pac/internal/peft"
	"pac/internal/planner"
	"pac/internal/profiler"
	"pac/internal/telemetry"
	"pac/internal/tensor"
)

// Re-plan decisions and their outcomes, by trigger: "failure" is the
// liveness path (a device died), "drift" is the health-monitor path (a
// straggler or stale profile). Outcomes compare the whole-step EWMA
// before the first re-plan against after the last one.
var (
	mReplansFailure = telemetry.Default().Counter("pac_replans_total", "trigger", "failure")
	mReplansDrift   = telemetry.Default().Counter("pac_replans_total", "trigger", "drift")
	mReplansFleet   = telemetry.Default().Counter("pac_replans_total", "trigger", "fleet")
	mReplanImproved = telemetry.Default().Counter("pac_replan_outcomes_total", "outcome", "improved")
	mReplanRegressd = telemetry.Default().Counter("pac_replan_outcomes_total", "outcome", "regressed")
)

// replanGuard is the single guarded entry point both re-plan triggers
// go through: the liveness path (device failure) and the health path
// (straggler/drift alert) race to request a re-plan, the first request
// of an attempt wins and cancels the attempt's context, and later
// requests coalesce into the winner instead of double-re-planning.
type replanGuard struct {
	mu      sync.Mutex
	cancel  context.CancelFunc
	pending string
	alert   health.Alert
}

// arm resets the guard for a new attempt whose context cancel is given.
func (g *replanGuard) arm(cancel context.CancelFunc) {
	g.mu.Lock()
	g.cancel = cancel
	g.pending = ""
	g.alert = health.Alert{}
	g.mu.Unlock()
}

// request asks for a re-plan. It returns true for exactly one caller
// per attempt — the winner, whose trigger drives the re-plan — and
// cancels the attempt so training unwinds promptly.
func (g *replanGuard) request(trigger string, a health.Alert) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pending != "" {
		return false
	}
	g.pending = trigger
	g.alert = a
	if g.cancel != nil {
		g.cancel()
	}
	return true
}

// take consumes the pending trigger ("" when none fired).
func (g *replanGuard) take() (string, health.Alert) {
	g.mu.Lock()
	defer g.mu.Unlock()
	t, a := g.pending, g.alert
	g.pending = ""
	return t, a
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pac-train: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags in, report on
// out, error instead of os.Exit.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pac-train", flag.ContinueOnError)
	taskName := fs.String("task", "mrpc", "task: mrpc, sts-b, sst-2, qnli")
	samples := fs.Int("samples", 128, "dataset size")
	epochs := fs.Int("epochs", 3, "total epochs (first fills the cache)")
	stages := fs.Int("stages", 2, "pipeline stages")
	lanes := fs.Int("lanes", 2, "data-parallel lanes per stage")
	batch := fs.Int("batch", 16, "mini-batch size")
	lr := fs.Float64("lr", 0.005, "learning rate")
	pretrain := fs.Int("pretrain", 6, "pretraining epochs for the backbone (0 = random backbone)")
	cacheDir := fs.String("cache-dir", "", "directory for a disk-backed activation cache (default: in-memory)")
	savePath := fs.String("save", "", "write the trained adapters to this checkpoint file")
	loadPath := fs.String("load", "", "initialize adapters from this checkpoint before training")
	snapEvery := fs.Int("snapshot-every", 4, "capture a training snapshot every N steps (0 disables)")
	snapDir := fs.String("snapshot-dir", "", "persist snapshots to this directory (default: in-memory only)")
	resume := fs.Bool("resume", false, "resume from the latest snapshot in -snapshot-dir")
	crashDevice := fs.Int("crash-device", -1, "inject a crash of this device (0..stages·lanes-1; -1 disables)")
	crashAfter := fs.Int("crash-after", 100, "transport operations before the injected crash fires")
	crashPhase := fs.String("crash-phase", "hybrid", "phase the injected crash targets: hybrid (epoch 1) or cached (epochs ≥2)")
	maxRecoveries := fs.Int("max-recoveries", 3, "in-process recovery attempts before giving up (0 = fail fast)")
	stepTimeout := fs.Duration("step-timeout", 5*time.Second, "per-step liveness deadline for failure detection")
	telemetryAddr := fs.String("telemetry-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/flight on this address (empty disables)")
	traceOut := fs.String("trace-out", "", "write the run's Chrome/Perfetto JSON trace to this file")
	traceSample := fs.Float64("trace-sample", 1, "fraction of training steps recorded as causal span trees (applies when -trace-out is set)")
	traceCap := fs.Int("trace-cap", telemetry.DefaultTraceCap, "span ring-buffer capacity (older spans overwritten)")
	faultDrop := fs.Float64("fault-drop", 0, "per-send probability of an injected transient drop (0 disables)")
	replanOnDrift := fs.Bool("replan-on-drift", false, "let health-monitor straggler/drift alerts trigger a re-plan (quarantine + profile feedback)")
	drainDevice := fs.Int("drain-device", -1, "orchestrate a goal-state maintenance drain of this device index mid-run (-1 disables)")
	drainDelay := fs.Duration("drain-delay", 50*time.Millisecond, "delay before the -drain-device fleet drain starts (after the first snapshot when -snapshot-every > 0)")
	fleetJournal := fs.String("fleet-journal", "", "crash-resume journal for the -drain-device fleet drain (empty disables)")
	stragglerFactor := fs.Float64("straggler-factor", 3, "flag a lane/rank as a straggler when slower than the healthy median by this factor")
	flightSize := fs.Int("flight-size", 256, "flight-recorder ring capacity in events (0 disables)")
	flightOut := fs.String("flight-out", "", "write the flight-recorder dump to this file at exit")
	slowLane := fs.Int("slow-lane", -1, "inject a persistent per-send delay into every stage of this lane's pipeline fabric (-1 disables)")
	slowDelay := fs.Duration("slow-delay", 25*time.Millisecond, "injected per-send delay for -slow-lane")
	workers := fs.Int("workers", 0, "kernel worker goroutines for tensor ops (0 = GOMAXPROCS default)")
	backendName := fs.String("backend", "generic", "tensor compute backend: generic | int8 (int8 quantizes the frozen backbone of every replica)")
	poolStats := fs.Bool("pool-stats", false, "print tensor pool statistics when the run finishes")
	memBudget := fs.String("mem-budget", "", "arm the process memory ledger with this byte budget (e.g. 256MiB): watermark crossings record flight events, critical pressure sheds the activation cache (empty disables)")
	memWarnFrac := fs.Float64("mem-warn-frac", memledger.DefaultWarnFrac, "warn watermark as a fraction of -mem-budget")
	memCritFrac := fs.Float64("mem-crit-frac", memledger.DefaultCritFrac, "critical watermark as a fraction of -mem-budget")
	memReport := fs.String("mem-report", "", "write per-account peak bytes (the BENCH_mem.json shape) to this file at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers > 0 {
		tensor.SetMaxWorkers(*workers)
	}
	if err := tensor.SetBackend(*backendName); err != nil {
		return err
	}
	if *poolStats {
		defer func() { fmt.Fprintln(out, tensor.ReadPoolStats().String()) }()
	}

	// The flight recorder runs for the whole process: a fixed-size
	// lock-free ring every subsystem appends structured events to, dumped
	// as JSON on panic, on unrecoverable failure, via -flight-out, or live
	// over /debug/flight. Disabling it (size 0) makes every Record a no-op.
	if *flightSize > 0 {
		health.Enable(*flightSize)
		defer health.Disable()
	}
	defer func() {
		if r := recover(); r != nil {
			dumpFlight(os.Stderr, "panic", *flightOut)
			panic(r)
		}
	}()

	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.NewTracerCap(*traceCap)
		tracer.SetSampleRate(*traceSample)
	}

	// The emulated device pool: one named device per (lane, stage) slot,
	// tracked by a heartbeat-based liveness monitor.
	pool := cluster.Nanos(*stages * *lanes)
	live := cluster.NewLiveness(time.Minute)
	for _, d := range pool.Devices {
		live.Heartbeat(d.Name)
	}

	// Memory observability: the process-wide ledger (every instrumented
	// subsystem accounts into it) plus one ledger per simulated device so
	// /debug/mem and the trace show the per-device 1F1B activation
	// profile next to the process view. -mem-budget arms the pressure
	// watermarks.
	ledger := memledger.Default()
	if *memBudget != "" {
		budget, err := memledger.ParseBytes(*memBudget)
		if err != nil {
			return err
		}
		ledger.SetBudget(budget, *memWarnFrac, *memCritFrac)
		fmt.Fprintf(out, "memory budget: %.1f MB (warn %.0f%%, critical %.0f%%)\n",
			float64(budget)/1e6, *memWarnFrac*100, *memCritFrac*100)
	}
	ledger.ExportTo(telemetry.Default())
	devLedgers := make([]*memledger.Ledger, pool.Size())
	for i, d := range pool.Devices {
		devLedgers[i] = memledger.New(d.Name)
		devLedgers[i].ExportTo(telemetry.Default())
	}
	deviceLedgers := func() []*memledger.Ledger { return devLedgers }
	stopSampler := ledger.StartSampler(0)
	defer stopSampler()
	for _, dl := range devLedgers {
		stop := dl.StartSampler(0)
		defer stop()
	}

	if *telemetryAddr != "" {
		mux := telemetry.NewDebugMux(telemetry.Default(), tracer,
			telemetry.Extra{Path: "/debug/flight", Handler: health.Flight()},
			telemetry.Extra{Path: "/debug/mem", Handler: memledger.Handler(ledger, deviceLedgers)})
		ln, err := telemetry.Serve(*telemetryAddr, mux)
		if err != nil {
			return fmt.Errorf("telemetry: %w", err)
		}
		defer ln.Close()
		fmt.Fprintf(out, "telemetry: http://%s/metrics\n", ln.Addr())
	}

	var task data.Task
	switch *taskName {
	case "mrpc":
		task = data.MRPC
	case "sts-b":
		task = data.STSB
	case "sst-2":
		task = data.SST2
	case "qnli":
		task = data.QNLI
	default:
		return fmt.Errorf("unknown task %q", *taskName)
	}
	spec := data.SpecFor(task)

	ds := data.Generate(data.GenConfig{Task: task, Size: *samples, SeqLen: 16, Vocab: 64, Seed: 7})
	trainDS, evalDS := ds.Split(0.25)

	cfg := model.Tiny()
	cfg.NumClasses = spec.NumClasses
	cfg.MaxSeq = 32

	// The store is created here, not inside core.New, so it outlives
	// every recovery attempt: a successor framework salvages it instead
	// of refilling from scratch.
	var store acache.Store
	if *cacheDir != "" {
		s, err := acache.NewDiskStore(*cacheDir)
		if err != nil {
			return err
		}
		store = s
	} else {
		store = acache.NewMemoryStore()
	}
	// Under an armed budget the activation cache doubles as the pressure
	// relief valve: a critical crossing sheds entries until the ledger
	// total is back at the warn watermark, trading recomputes for RAM.
	// The MaxInt64 bound admits everything until then; Shed lowers it to
	// its target, so the samples it removed stay out. The shed runs on
	// its own goroutine because the crossing can fire from inside a
	// cache Put that already holds the Bounded lock.
	var shedEntries, shedBytes atomic.Int64
	if *memBudget != "" {
		bounded := acache.NewBounded(store, int64(math.MaxInt64))
		warnFrac := *memWarnFrac
		ledger.OnPressure(func(level memledger.Level, total, budget int64) {
			need := total - int64(float64(budget)*warnFrac)
			go func() {
				target := bounded.Bytes() - need
				if target < 0 {
					target = 0
				}
				entries, freed := bounded.Shed(target)
				shedEntries.Add(int64(entries))
				shedBytes.Add(freed)
				health.Flight().Record("mem-shed", -1, -1,
					fmt.Sprintf("shed %d cache entries", entries), float64(freed))
			}()
		})
		store = bounded
	}

	var backbone *model.Model
	if *pretrain > 0 {
		corpus := data.Generate(data.GenConfig{Task: data.SST2, Size: 384, SeqLen: 16, Vocab: 64, Seed: 99})
		backbone = core.PretrainBackbone(cfg, corpus, *pretrain, 3e-3, 1)
		fmt.Fprintf(out, "pretrained backbone for %d epochs\n", *pretrain)
	}

	// Snapshot plumbing: the latest capture is always held in memory
	// (enough for in-process recovery); -snapshot-dir additionally
	// persists generations durably via a background writer.
	var writer *checkpoint.Snapshotter
	if *snapDir != "" {
		w, err := checkpoint.NewSnapshotter(*snapDir, 3)
		if err != nil {
			return err
		}
		writer = w
	}
	closeWriter := func() int {
		if writer == nil {
			return 0
		}
		if err := writer.Close(); err != nil {
			fmt.Fprintf(out, "WARNING: snapshot write failed: %v\n", err)
		}
		n := writer.Written()
		writer = nil
		return n
	}
	defer closeWriter()

	var snapMu sync.Mutex
	var lastSnap *checkpoint.Snapshot
	onSnapshot := func(s *checkpoint.Snapshot) {
		s.Task = task.String()
		snapMu.Lock()
		lastSnap = s
		snapMu.Unlock()
		if writer != nil {
			writer.Write(s)
		}
	}
	latestSnapshot := func() *checkpoint.Snapshot {
		snapMu.Lock()
		s := lastSnap
		snapMu.Unlock()
		if s != nil {
			return s
		}
		if *snapDir == "" {
			return nil
		}
		s, _, err := checkpoint.Latest(*snapDir)
		if err != nil {
			return nil
		}
		return s
	}

	coreCfg := core.Config{
		Model:            cfg,
		Opts:             peft.Options{Reduction: 2},
		Stages:           *stages,
		Lanes:            *lanes,
		LR:               float32(*lr),
		Adam:             true,
		Cache:            store,
		Regression:       spec.Regression,
		Backbone:         backbone,
		QuantizeBackbone: tensor.BackendQuantized(),
		StepTimeout:      *stepTimeout,
		SnapshotEvery:    *snapEvery,
		OnSnapshot:       onSnapshot,
		Trace:            tracer,
	}
	// Per-device memory views: the pipeline engine reserves each
	// micro-batch's retained activations in its (lane, stage) device's
	// ledger between forward and backward. Indexed like the pool
	// (device = lane·stages + stage), nil-safe past a re-plan shrink.
	nStages := *stages
	coreCfg.MemFor = func(lane, stage int) *memledger.Account {
		idx := lane*nStages + stage
		if idx < 0 || idx >= len(devLedgers) {
			return nil
		}
		return devLedgers[idx].Account("pipeline.activations")
	}
	if *faultDrop > 0 {
		coreCfg.Faults = &parallel.FaultConfig{Seed: 1, Drop: *faultDrop}
		fmt.Fprintf(out, "fault injection: %.0f%% transient send drops\n", *faultDrop*100)
	}
	// Fault injection: crash and straggler shapers compose into one
	// transport wrapper so a run can combine, say, a slow lane with
	// background drops.
	var shapers []func(id parallel.FabricID, fc *parallel.FaultConfig)
	if *crashDevice >= 0 {
		if *crashDevice >= pool.Size() {
			return fmt.Errorf("crash-device %d out of range (pool has %d devices)", *crashDevice, pool.Size())
		}
		after := *crashAfter
		switch *crashPhase {
		case "hybrid":
			crashLane := *crashDevice / *stages
			crashStage := *crashDevice % *stages
			shapers = append(shapers, func(id parallel.FabricID, fc *parallel.FaultConfig) {
				if id.Kind == "pipe" && id.Index == crashLane {
					fc.Crash = map[int]int{crashStage: after}
				}
			})
			fmt.Fprintf(out, "fault injection: device %d (%s, lane %d stage %d) crashes after %d transport ops in the hybrid phase\n",
				*crashDevice, pool.Devices[*crashDevice].Name, crashLane, crashStage, after)
		case "cached":
			crashRank := *crashDevice
			shapers = append(shapers, func(id parallel.FabricID, fc *parallel.FaultConfig) {
				if id.Kind == "dp" {
					fc.Crash = map[int]int{crashRank: after}
				}
			})
			fmt.Fprintf(out, "fault injection: device %d (%s, DP rank %d) crashes after %d transport ops in the cached phase\n",
				*crashDevice, pool.Devices[*crashDevice].Name, crashRank, after)
		default:
			return fmt.Errorf("unknown crash-phase %q (want hybrid or cached)", *crashPhase)
		}
	}
	if *slowLane >= 0 {
		if *slowLane >= *lanes {
			return fmt.Errorf("slow-lane %d out of range (%d lanes)", *slowLane, *lanes)
		}
		lane, delay, nStages := *slowLane, *slowDelay, *stages
		shapers = append(shapers, func(id parallel.FabricID, fc *parallel.FaultConfig) {
			if id.Kind == "pipe" && id.Index == lane {
				fc.SlowRank = map[int]time.Duration{}
				for s := 0; s < nStages; s++ {
					fc.SlowRank[s] = delay
				}
			}
		})
		fmt.Fprintf(out, "fault injection: lane %d delayed %v per send (persistent straggler)\n", lane, delay)
	}
	if len(shapers) > 0 {
		coreCfg.WrapTransport = func(id parallel.FabricID, eps []parallel.Transport) []parallel.Transport {
			fc := parallel.FaultConfig{Seed: 1, Drop: *faultDrop}
			for _, shape := range shapers {
				shape(id, &fc)
			}
			return parallel.WrapFaulty(eps, fc)
		}
	}

	// buildFramework assembles a framework for one attempt; with a
	// snapshot it restores the training state and salvages the cache so
	// the attempt continues instead of restarting.
	buildFramework := func(c core.Config, snap *checkpoint.Snapshot) (*core.Framework, core.Cursor, error) {
		f := core.New(c)
		if snap == nil {
			if *loadPath != "" {
				if _, err := checkpoint.Load(*loadPath, f.Reference(), cfg); err != nil {
					return nil, core.Cursor{}, fmt.Errorf("load: %w", err)
				}
				f.AdoptReferenceWeights()
				fmt.Fprintf(out, "loaded adapters from %s\n", *loadPath)
			}
			return f, core.Cursor{}, nil
		}
		if err := f.RestoreSnapshot(snap); err != nil {
			return nil, core.Cursor{}, fmt.Errorf("restore snapshot: %w", err)
		}
		cur := core.Cursor{Epoch: snap.Epoch, Step: snap.Step}
		rep, err := f.SalvageCache(trainDS, *batch, snap.Seed, cur)
		if err != nil {
			return nil, core.Cursor{}, fmt.Errorf("salvage cache: %w", err)
		}
		fmt.Fprintf(out, "cache salvage: %s\n", rep)
		return f, cur, nil
	}

	var startSnap *checkpoint.Snapshot
	if *resume {
		if *snapDir == "" {
			return fmt.Errorf("-resume requires -snapshot-dir")
		}
		s, path, err := checkpoint.Latest(*snapDir)
		switch {
		case errors.Is(err, os.ErrNotExist):
			fmt.Fprintf(out, "resume: no usable snapshot in %s, starting fresh\n", *snapDir)
		case err != nil:
			return fmt.Errorf("resume: %w", err)
		default:
			startSnap = s
			fmt.Fprintf(out, "resume: continuing from %s (epoch %d, step %d)\n", path, s.Epoch, s.Step)
		}
	}

	// Health monitoring: every attempt gets a fresh monitor fed per-step
	// by the engines, with per-stage expectations from the analytic cost
	// model (the planner's view of how long each stage should take).
	// Alerts print immediately; with -replan-on-drift a lane-attributable
	// alert also requests a re-plan through the same guard the liveness
	// path uses, so concurrent triggers cannot double-re-plan.
	var guard replanGuard
	var driftEnabled atomic.Bool
	driftEnabled.Store(*replanOnDrift)
	var monitors []*health.Monitor
	newMonitor := func() *health.Monitor {
		perLane := *batch / coreCfg.Lanes
		if perLane < 1 {
			perLane = 1
		}
		costs := costmodel.Costs{Cfg: cfg, Kind: peft.ParallelAdapters, EncSeq: 16, DecSeq: 2}
		blocks := costs.Blocks()
		expected := costmodel.StageSeconds(blocks,
			parallel.EvenBoundaries(len(blocks), coreCfg.Stages), perLane, pool.Devices[0])
		mon := health.NewMonitor(health.Config{
			StragglerFactor:  *stragglerFactor,
			ExpectedStageSec: expected,
			Flight:           health.Flight(),
			OnAlert: func(a health.Alert) {
				fmt.Fprintf(out, "ALERT: %s\n", a)
				if a.Lane >= 0 && driftEnabled.Load() {
					guard.request("drift", a)
				}
			},
		})
		monitors = append(monitors, mon)
		return mon
	}

	coreCfg.Health = newMonitor()
	f, cursor, err := buildFramework(coreCfg, startSnap)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "PAC fine-tuning %s: %d samples, %d epochs, %d stages × %d lanes (= %d devices)\n",
		task, trainDS.Len(), *epochs, *stages, *lanes, *stages**lanes)
	before := f.Evaluate(evalDS, *batch)
	fmt.Fprintf(out, "before: loss %.4f, metric %.2f\n", before.Loss, before.Metric(task))

	// Fleet drain: the goal-state orchestrator drains one device for
	// maintenance while training runs — Snapshot (wait for a training
	// snapshot to exist), Drain (quarantine the device and request a
	// re-plan through the same guard the drift path uses), Quiesce,
	// Verify. The goroutine never writes to out; its outcome is collected
	// after the supervisor loop finishes.
	fleetResult := make(chan string, 1)
	if *drainDevice >= 0 {
		if *drainDevice >= pool.Size() {
			return fmt.Errorf("-drain-device %d out of range (pool has %d devices)", *drainDevice, pool.Size())
		}
		go func() {
			// Pace the drain by training progress, not wall clock: wait for
			// the first snapshot so the Drain step interrupts a run that is
			// demonstrably past its first epoch (bounded so a crashed run
			// cannot wedge the drain forever).
			if *snapEvery > 0 {
				deadline := time.Now().Add(30 * time.Second)
				for latestSnapshot() == nil && time.Now().Before(deadline) {
					time.Sleep(2 * time.Millisecond)
				}
			}
			time.Sleep(*drainDelay)
			fleetResult <- runFleetDrain(*drainDevice, *stages, pool, live, &guard,
				*snapEvery > 0, latestSnapshot, *fleetJournal)
		}()
	}

	start := time.Now()
	// The supervisor loop: train; on a device failure, a health-monitor
	// drift request, or a fleet drain — all funneled through replanGuard
	// — attribute the cause, re-plan, restore the latest snapshot,
	// salvage the cache, and resume from the cursor. No restart from
	// scratch as long as a snapshot exists.
	recoveries := 0
	driftReplans := 0
	fleetReplans := 0
	var loss float64
	for {
		ctx, cancel := context.WithCancel(context.Background())
		guard.arm(cancel)
		loss, err = f.FineTuneFromCtx(ctx, trainDS, *batch, *epochs, 1, cursor)
		cancel()
		trigger, alert := guard.take()
		if err == nil {
			break // finished; a late drift request has nothing left to re-plan
		}
		rf, failed := parallel.AsRankFailed(err)
		switch {
		case failed:
			// Liveness path. A concurrent drift request loses the race: a
			// dead device supersedes a slow one.
			if recoveries >= *maxRecoveries {
				dumpFlight(out, "unrecoverable failure", *flightOut)
				return fmt.Errorf("device failure after %d recoveries: %w", recoveries, err)
			}
			recoveries++

			devIdx, known := attributeDevice(rf, coreCfg.Stages, pool.Size())
			if known {
				failedName := pool.Devices[devIdx].Name
				live.MarkDead(failedName)
				fmt.Fprintf(out, "FAILURE: device %s detected dead (%v)\n", failedName, rf)

				survivors := live.Survivors(pool)
				mReplansFailure.Inc()
				health.Flight().Record("replan", rf.Lane, rf.Rank, "failure", 0)
				tracer.Instant("replan", "replan:failure", 0, 0)
				fmt.Fprintf(out, "re-planning on %d surviving device(s): %v\n", survivors.Size(), deviceNames(survivors))
				costs := costmodel.Costs{Cfg: cfg, Kind: peft.ParallelAdapters, EncSeq: 16, DecSeq: 2}
				in := planner.Input{Blocks: costs.Blocks(), Cluster: survivors, MiniBatch: *batch}
				if plan, perr := planner.New(in); perr != nil {
					fmt.Fprintf(out, "re-plan: no feasible configuration on survivors (%v)\n", perr)
				} else {
					fmt.Fprintf(out, "re-plan: %s\n", plan)
				}
				// The crashed lane's surviving devices are reassigned; shrink
				// the lane count to fit the smaller pool.
				if coreCfg.Lanes > 1 {
					coreCfg.Lanes--
				}
			} else {
				// The failure could not be attributed to a concrete device
				// (collective-level fault): keep the pool intact rather than
				// blaming an arbitrary member.
				fmt.Fprintf(out, "FAILURE: unknown device (rank %d, lane %d): %v — pool unchanged\n", rf.Rank, rf.Lane, rf)
			}
		case trigger == "fleet":
			// Fleet path: the orchestrator's Drain step quarantined a
			// device for maintenance and requested this re-plan. Like
			// drift, the device is sidelined (not dead) and the re-plan
			// does not consume the failure-recovery budget.
			mReplansFleet.Inc()
			fleetReplans++
			health.Flight().Record("replan", alert.Lane, -1, "fleet", 0)
			tracer.Instant("replan", "replan:fleet", 0, 0)
			survivors := live.Survivors(pool)
			fmt.Fprintf(out, "re-planning on fleet drain: %d surviving device(s): %v\n",
				survivors.Size(), deviceNames(survivors))
			costs := costmodel.Costs{Cfg: cfg, Kind: peft.ParallelAdapters, EncSeq: 16, DecSeq: 2}
			in := planner.Input{Blocks: costs.Blocks(), Cluster: survivors, MiniBatch: *batch}
			if plan, perr := planner.New(in); perr != nil {
				fmt.Fprintf(out, "re-plan (fleet): no feasible configuration on survivors (%v)\n", perr)
			} else {
				fmt.Fprintf(out, "re-plan (fleet): %s\n", plan)
			}
			if coreCfg.Lanes > 1 {
				coreCfg.Lanes--
			}
		case trigger == "drift":
			// Health path: the monitor flagged a straggling lane and won the
			// guard. The lane is quarantined — sidelined, not dead — and the
			// re-plan runs on the monitor's measured per-stage profile
			// instead of analytic costs. Drift re-plans do not consume the
			// failure-recovery budget; they stop when there is nothing left
			// to shed.
			mReplansDrift.Inc()
			driftReplans++
			health.Flight().Record("replan", alert.Lane, alert.Rank, "drift", alert.Ratio)
			tracer.Instant("replan", "replan:drift", 0, 0)
			fmt.Fprintf(out, "re-planning on drift: %s\n", alert)
			if alert.Lane >= 0 && coreCfg.Lanes > 1 {
				for s := 0; s < coreCfg.Stages; s++ {
					if idx := alert.Lane*coreCfg.Stages + s; idx < pool.Size() {
						live.Quarantine(pool.Devices[idx].Name)
					}
				}
				fmt.Fprintf(out, "quarantined lane %d: %v\n", alert.Lane, live.Quarantined())
			}
			survivors := live.Survivors(pool)
			costs := costmodel.Costs{Cfg: cfg, Kind: peft.ParallelAdapters, EncSeq: 16, DecSeq: 2}
			analytic := costs.Blocks()
			planBlocks, planCluster := analytic, survivors
			// Profile feedback: fold measured per-stage times into the
			// profiler's calibration machinery so the new plan reflects the
			// host this run actually executes on.
			if fwd, bwd, ok := monitors[len(monitors)-1].StageFwdBwdSeconds(); ok {
				perLane := *batch / coreCfg.Lanes
				if perLane < 1 {
					perLane = 1
				}
				bounds := parallel.EvenBoundaries(len(analytic), coreCfg.Stages)
				if prof, ferr := profiler.FromStageSeconds(cfg, analytic, bounds, fwd, bwd, perLane); ferr == nil {
					dev := prof.CalibrateDevice("measured", pool.Devices[0].MemoryBytes, pool.Devices[0].LinkMbps)
					if mb, merr := prof.ToBlockCosts(analytic, dev); merr == nil {
						planBlocks = mb
						planCluster = cluster.Homogeneous(dev, survivors.Size())
						fmt.Fprintf(out, "profile feedback: measured %.1f effective GFLOPS over %d stage(s)\n",
							prof.EffectiveGFLOPS, len(fwd))
					}
				}
			}
			in := planner.Input{Blocks: planBlocks, Cluster: planCluster, MiniBatch: *batch}
			if plan, perr := planner.New(in); perr != nil {
				fmt.Fprintf(out, "re-plan (drift): no feasible configuration (%v)\n", perr)
			} else {
				fmt.Fprintf(out, "re-plan (drift): %s\n", plan)
			}
			if coreCfg.Lanes > 1 {
				coreCfg.Lanes--
			}
			if coreCfg.Lanes == 1 {
				driftEnabled.Store(false) // nothing left to shed
			}
		default:
			return err
		}
		coreCfg.WrapTransport = nil // the injected fault has fired

		snap := latestSnapshot()
		if snap != nil {
			fmt.Fprintf(out, "recovering from snapshot: epoch %d, step %d (%d stages × %d lanes)\n",
				snap.Epoch, snap.Step, coreCfg.Stages, coreCfg.Lanes)
		} else {
			fmt.Fprintf(out, "no snapshot captured yet: restarting from scratch (%d stages × %d lanes, cache preserved)\n",
				coreCfg.Stages, coreCfg.Lanes)
		}
		coreCfg.Health = newMonitor()
		f, cursor, err = buildFramework(coreCfg, snap)
		if err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	totalReports, totalAlerts := 0, 0
	for _, m := range monitors {
		totalReports += m.Reports()
		totalAlerts += len(m.Alerts())
	}
	fmt.Fprintf(out, "health: %d step reports, %d alerts, %d drift re-plan(s) across %d attempt(s)\n",
		totalReports, totalAlerts, driftReplans, len(monitors))
	if *drainDevice >= 0 {
		fmt.Fprintln(out, <-fleetResult)
		fmt.Fprintf(out, "fleet: %d drain re-plan(s)\n", fleetReplans)
	}
	if len(monitors) > 1 {
		first, last := monitors[0].StepEWMASec(), monitors[len(monitors)-1].StepEWMASec()
		if first > 0 && last > 0 {
			if last < first {
				mReplanImproved.Inc()
			} else {
				mReplanRegressd.Inc()
			}
			fmt.Fprintf(out, "health: step EWMA %.4fs before first re-plan, %.4fs after last re-plan\n", first, last)
		}
	}
	dumpFlight(out, "run complete", *flightOut)

	after := f.Evaluate(evalDS, *batch)
	st := f.Cache().Stats()
	fmt.Fprintf(out, "after:  loss %.4f, metric %.2f (train loss %.4f)\n", after.Loss, after.Metric(task), loss)
	fmt.Fprintf(out, "wall time %.1fs; cache: %d entries, %.1f MB, %d hits / %d puts / %d corrupt; redistributed %.1f MB\n",
		elapsed.Seconds(), f.Cache().Len(), float64(f.Cache().Bytes())/1e6,
		st.Hits, st.Puts, st.Corrupt, float64(f.RedistributedBytes)/1e6)
	if n := closeWriter(); n > 0 {
		fmt.Fprintf(out, "snapshots: %d written to %s\n", n, *snapDir)
	}
	// Memory report: ledger-wide and per-device peaks, the measurable
	// side of the paper's memory-efficiency claim. Devices are distinct
	// 1F1B profiles, not copies — early stages hold more warmup
	// micro-batches.
	fmt.Fprintf(out, "memory: process peak %.1f MB", float64(ledger.TotalPeak())/1e6)
	if warn, crit := ledger.Crossings(); warn+crit > 0 {
		fmt.Fprintf(out, " (%d warn / %d critical crossings; shed %d cache entries, %.1f MB)",
			warn, crit, shedEntries.Load(), float64(shedBytes.Load())/1e6)
	}
	fmt.Fprintln(out)
	for _, dl := range devLedgers {
		if dl.TotalPeak() > 0 {
			fmt.Fprintf(out, "memory: device %s peak %.1f KB\n", dl.Name(), float64(dl.TotalPeak())/1e3)
		}
	}
	if *memReport != "" {
		if err := writeMemReport(*memReport, ledger, devLedgers); err != nil {
			return fmt.Errorf("mem-report: %w", err)
		}
		fmt.Fprintf(out, "memory report written to %s\n", *memReport)
	}

	if *traceOut != "" {
		// Merge the memory-ledger counter tracks into the span trace so
		// Perfetto draws the byte timeline under the same clock: the
		// process ledger at PidMem, each device ledger on its own track.
		ledger.Sample()
		tracer.SetProcessName(telemetry.PidMem, "memory (process ledger)")
		for i, dl := range devLedgers {
			dl.Sample()
			tracer.SetProcessName(telemetry.PidMem+1+i, "memory ("+dl.Name()+")")
		}
		evs := tracer.Events()
		evs = append(evs, ledger.ChromeCounters(telemetry.PidMem, tracer.StartTime())...)
		for i, dl := range devLedgers {
			evs = append(evs, dl.ChromeCounters(telemetry.PidMem+1+i, tracer.StartTime())...)
		}
		blob, err := telemetry.EncodeChromeJSON(evs)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		if err := os.WriteFile(*traceOut, blob, 0o644); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(out, "trace: %d events written to %s\n", len(evs), *traceOut)
	}

	if *savePath != "" {
		if err := checkpoint.Save(*savePath, task.String(), f.Reference(), cfg, uint64(f.EpochsRun())); err != nil {
			return fmt.Errorf("save: %w", err)
		}
		fmt.Fprintf(out, "saved adapters to %s\n", *savePath)
	}
	return nil
}

// memBench is the BENCH_mem.json shape: per-account peak bytes for the
// process ledger, total peaks per device ledger. The committed
// BENCH_mem.json holds budget ceilings in this shape; -mem-report
// writes the measured peaks so CI can compare the two field by field.
type memBench struct {
	Schema         string           `json:"schema"`
	TotalPeakBytes int64            `json:"total_peak_bytes"`
	Accounts       map[string]int64 `json:"accounts"`
	Devices        map[string]int64 `json:"devices,omitempty"`
}

// writeMemReport captures the ledgers' lifetime peaks as JSON.
func writeMemReport(path string, l *memledger.Ledger, devs []*memledger.Ledger) error {
	rep := memBench{
		Schema:         "pac-mem-bench/v1",
		TotalPeakBytes: l.TotalPeak(),
		Accounts:       map[string]int64{},
	}
	for _, a := range l.Snapshot().Accounts {
		rep.Accounts[a.Account] = a.PeakBytes
	}
	if len(devs) > 0 {
		rep.Devices = map[string]int64{}
		for _, d := range devs {
			rep.Devices[d.Name()] = d.TotalPeak()
		}
	}
	blob, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// dumpFlight serializes the flight-recorder ring: to path when one was
// given, otherwise inline on w for failure reasons so the last events
// before death land in the log ("run complete" stays quiet without a
// path). A nil or empty recorder dumps nothing.
func dumpFlight(w io.Writer, reason, path string) {
	rec := health.Flight()
	if rec == nil || rec.Recorded() == 0 {
		return
	}
	blob, err := rec.Dump()
	if err != nil {
		return
	}
	if path != "" {
		if werr := os.WriteFile(path, blob, 0o644); werr != nil {
			fmt.Fprintf(w, "WARNING: flight dump failed: %v\n", werr)
			return
		}
		fmt.Fprintf(w, "flight recorder: %d event(s) (%s) written to %s\n", len(rec.Events()), reason, path)
		return
	}
	if reason == "run complete" {
		return // a clean exit dumps only when a path was asked for
	}
	fmt.Fprintf(w, "flight recorder (%s, last %d event(s)):\n%s\n", reason, len(rec.Events()), blob)
}

// attributeDevice maps a rank failure to a concrete pool index: phase-1
// failures carry (lane, stage), cached-phase failures a DP rank that is
// the device index directly. A rank that falls outside the pool — a
// collective-level fault, or an error surfaced after a re-plan changed
// the pool shape — is reported as unknown rather than blamed on an
// arbitrary device.
func attributeDevice(rf *parallel.RankFailedError, stages, poolSize int) (int, bool) {
	idx := rf.Rank
	if rf.Lane >= 0 {
		idx = rf.Lane*stages + rf.Rank
	}
	if idx < 0 || idx >= poolSize {
		return -1, false
	}
	return idx, true
}

func deviceNames(c cluster.Cluster) []string {
	out := make([]string, c.Size())
	for i, d := range c.Devices {
		out[i] = d.Name
	}
	return out
}

// runFleetDrain drives a goal-state maintenance drain of one pool
// device through the fleet orchestrator: the goal quarantines the
// device, Diff plans Snapshot → Drain → Quiesce → Verify, and the
// executor enforces the safety invariants (never below a stage group's
// floor, one group degraded at a time) against the liveness tracker's
// live state. The Drain step quarantines the device and requests a
// supervisor re-plan through the shared guard; the Snapshot step waits
// for a training snapshot so recovery never restarts from scratch.
// Returns a one-line outcome for the main loop to print.
func runFleetDrain(target, stages int, pool cluster.Cluster, live *cluster.Liveness,
	guard *replanGuard, waitSnap bool, latestSnapshot func() *checkpoint.Snapshot,
	journalPath string) string {

	name := pool.Devices[target].Name
	goal := fleet.GoalSpec{Quarantine: []string{name}}
	seen := map[int]bool{}
	for i, d := range pool.Devices {
		goal.Devices = append(goal.Devices, d.Name)
		if g := i % stages; !seen[g] {
			seen[g] = true
			goal.Groups = append(goal.Groups, fleet.GroupGoal{Group: g, MinReplicas: 1})
		}
	}

	// Observe folds the liveness tracker into the orchestrator's device
	// model: quarantined devices still heartbeat (alive but sidelined),
	// dead ones do not.
	observe := func() fleet.Observed {
		q := map[string]bool{}
		for _, n := range live.Quarantined() {
			q[n] = true
		}
		var obs fleet.Observed
		for i, d := range pool.Devices {
			obs.Devices = append(obs.Devices, fleet.DeviceState{
				Name:        d.Name,
				Group:       i % stages,
				Alive:       live.Alive(d.Name) || q[d.Name],
				Quarantined: q[d.Name],
			})
		}
		return obs
	}

	act := fleet.ActuatorFunc(func(ctx context.Context, step fleet.Step) error {
		switch step.Kind {
		case fleet.StepSnapshot:
			if !waitSnap {
				return nil // snapshots disabled: nothing to wait for
			}
			for latestSnapshot() == nil {
				select {
				case <-ctx.Done():
					return fmt.Errorf("no training snapshot before drain: %w", ctx.Err())
				case <-time.After(5 * time.Millisecond):
				}
			}
			return nil
		case fleet.StepDrain:
			live.Quarantine(step.Device)
			guard.request("fleet", health.Alert{Lane: target / stages, Stage: target % stages})
			return nil
		case fleet.StepVerify:
			for _, n := range live.Quarantined() {
				if n == step.Device {
					return nil
				}
			}
			return fmt.Errorf("verify %s: not quarantined", step.Device)
		default: // Quiesce and the rest are no-ops against the training pool
			return nil
		}
	})

	var journal *fleet.Journal
	if journalPath != "" {
		j, err := fleet.OpenJournal(journalPath)
		if err != nil {
			return fmt.Sprintf("fleet drain of %s: %v", name, err)
		}
		journal = j
		defer journal.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := fleet.Reconcile(ctx, goal, fleet.ExecConfig{
		Actuator: act, Observe: observe, Goal: goal, Journal: journal,
		StepTimeout: 5 * time.Second, Retries: 1,
	}, 3)
	if err != nil {
		return fmt.Sprintf("fleet drain of %s: %v", name, err)
	}
	return fmt.Sprintf("fleet drain of %s complete: snapshot taken, device quarantined, training re-planned around it", name)
}
