// Command pac-train runs real PAC fine-tuning end to end on in-process
// goroutine devices: a trainable transformer backbone with Parallel
// Adapters, one hybrid data+pipeline epoch filling the activation
// cache, then cache-only data-parallel epochs — the full paper workflow
// at laptop scale. Training runs under internal/supervisor, whose
// package comment describes snapshots, failure recovery, drift and
// fleet-drain re-plans; this file is flags, wiring and the end-of-run
// report.
//
// Usage:
//
//	pac-train [-task mrpc|sts-b|sst-2|qnli] [-samples N] [-epochs N]
//	          [-stages N] [-lanes N] [-batch N] [-lr F] [-cache-dir DIR]
//	          [-snapshot-every N] [-snapshot-dir DIR] [-resume]
//	          [-crash-device N] [-crash-after OPS] [-crash-phase hybrid|cached]
//	          [-max-recoveries N] [-step-timeout D] [-fault-drop P]
//	          [-slow-lane N] [-slow-delay D]
//	          [-replan-on-drift]
//	          [-drain-device N] [-drain-delay D]
//	          [-flight-size N] [-flight-out FILE]
//	          [-telemetry-addr HOST:PORT] [-trace-out FILE] [-trace-sample P]
//	          [-mem-budget BYTES] [-mem-report FILE]
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
// steps (pac-trace analyzes the dump offline: critical path, per-device
// busy time, pipeline bubbles). The flight recorder keeps the last
// -flight-size structured events (steps, retries, faults, alerts,
// snapshots, re-plans) and dumps them on panic, on unrecoverable
// failure, to -flight-out, and live over /debug/flight.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sync/atomic"
	"time"

	"pac/internal/acache"
	"pac/internal/checkpoint"
	"pac/internal/cluster"
	"pac/internal/core"
	"pac/internal/data"
	"pac/internal/health"
	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/runtimecfg"
	"pac/internal/supervisor"
	"pac/internal/telemetry"
	"pac/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pac-train: %v\n", err)
		os.Exit(1)
	}
}

// options holds every flag's value. Flags that are a supervisor or a
// runtime setting parse straight into that package's Config.
type options struct {
	rt  runtimecfg.Config
	sup supervisor.Config

	task, cacheDir, savePath, loadPath string
	traceOut, flightOut, memReport     string
	samples, pretrain                  int
	lr                                 float64
	poolStats                          bool
}

// newFlags defines the command's flag surface (pinned by TestFlagSurface).
func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	o.sup.Crash, o.sup.Slow, o.sup.Drain = &supervisor.Crash{}, &supervisor.Slow{}, &supervisor.Drain{}
	fs := flag.NewFlagSet("pac-train", flag.ContinueOnError)
	fs.StringVar(&o.task, "task", "mrpc", "task: mrpc, sts-b, sst-2, qnli")
	fs.IntVar(&o.samples, "samples", 128, "dataset size")
	fs.IntVar(&o.sup.Epochs, "epochs", 3, "total epochs (first fills the cache)")
	fs.IntVar(&o.sup.Core.Stages, "stages", 2, "pipeline stages")
	fs.IntVar(&o.sup.Core.Lanes, "lanes", 2, "data-parallel lanes per stage")
	fs.IntVar(&o.sup.Batch, "batch", 16, "mini-batch size")
	fs.Float64Var(&o.lr, "lr", 0.005, "learning rate")
	fs.IntVar(&o.pretrain, "pretrain", 6, "pretraining epochs for the backbone (0 = random backbone)")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "directory for a disk-backed activation cache (default: in-memory)")
	fs.StringVar(&o.savePath, "save", "", "write the trained adapters to this checkpoint file")
	fs.StringVar(&o.loadPath, "load", "", "initialize adapters from this checkpoint before training")
	fs.IntVar(&o.sup.Core.SnapshotEvery, "snapshot-every", 4, "capture a training snapshot every N steps (0 disables)")
	fs.StringVar(&o.sup.SnapshotDir, "snapshot-dir", "", "persist snapshots to this directory (default: in-memory only)")
	fs.BoolVar(&o.sup.Resume, "resume", false, "resume from the latest snapshot in -snapshot-dir")
	fs.IntVar(&o.sup.Crash.Device, "crash-device", -1, "inject a crash of this device (0..stages·lanes-1; -1 disables)")
	fs.IntVar(&o.sup.Crash.After, "crash-after", 100, "transport operations before the injected crash fires")
	fs.StringVar(&o.sup.Crash.Phase, "crash-phase", "hybrid", "phase the injected crash targets: hybrid (epoch 1) or cached (epochs ≥2)")
	fs.IntVar(&o.sup.MaxRecoveries, "max-recoveries", 3, "in-process recovery attempts before giving up (0 = fail fast)")
	fs.DurationVar(&o.sup.Core.StepTimeout, "step-timeout", 5*time.Second, "per-step liveness deadline for failure detection")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the run's Chrome/Perfetto JSON trace to this file (sampled at -trace-sample)")
	fs.Float64Var(&o.sup.FaultDrop, "fault-drop", 0, "per-send probability of an injected transient drop (0 disables)")
	fs.BoolVar(&o.sup.ReplanOnDrift, "replan-on-drift", false, "let a health alert that names a lane (straggler or self-drift) quarantine that lane: the run continues from the latest snapshot on one lane fewer")
	fs.IntVar(&o.sup.Drain.Device, "drain-device", -1, "drain this device index mid-run: quarantine it and re-plan on the rest (-1 disables)")
	fs.DurationVar(&o.sup.Drain.Delay, "drain-delay", 50*time.Millisecond, "delay before the -drain-device fleet drain starts (after the first snapshot when -snapshot-every > 0)")
	fs.StringVar(&o.flightOut, "flight-out", "", "write the flight-recorder dump to this file at exit")
	fs.IntVar(&o.sup.Slow.Lane, "slow-lane", -1, "inject a persistent per-send delay into every stage of this lane's pipeline fabric (-1 disables)")
	fs.DurationVar(&o.sup.Slow.Delay, "slow-delay", 25*time.Millisecond, "injected per-send delay for -slow-lane")
	fs.BoolVar(&o.poolStats, "pool-stats", false, "print tensor pool statistics when the run finishes")
	fs.StringVar(&o.memReport, "mem-report", "", "write per-account peak bytes (the BENCH_mem.json shape) to this file at exit")
	o.rt.RegisterFlags(fs, runtimecfg.Config{Backend: "generic", FlightSize: 256, TraceSample: 1})
	return fs, o
}

// run is the whole command behind a testable seam: flags in, report on
// out, error instead of os.Exit, process globals left as found.
func run(args []string, out io.Writer) error {
	fs, o := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	sc := &o.sup
	stages, batch := sc.Core.Stages, sc.Batch
	var task data.Task
	switch o.task {
	case "mrpc":
		task = data.MRPC
	case "sts-b":
		task = data.STSB
	case "sst-2":
		task = data.SST2
	case "qnli":
		task = data.QNLI
	default:
		return fmt.Errorf("unknown task %q", o.task)
	}
	spec := data.SpecFor(task)

	// The store is created here, not inside core.New, so it outlives
	// every recovery attempt: a successor framework salvages it instead
	// of refilling from scratch.
	var store acache.Store = acache.NewMemoryStore()
	if o.cacheDir != "" {
		s, err := acache.NewDiskStore(o.cacheDir)
		if err != nil {
			return err
		}
		store = s
	}
	// Under an armed budget the activation cache doubles as the pressure
	// relief valve: a critical crossing sheds entries until the ledger
	// total is back at the warn watermark, trading recomputes for RAM.
	// The MaxInt64 bound admits everything until then; Shed lowers it to
	// its target, so the samples it removed stay out. The shed runs on
	// its own goroutine because the crossing can fire from inside a
	// cache Put that already holds the Bounded lock. The hook subscribes
	// before Start arms the budget (arming fires at once in a process
	// whose pool is already warm). OnPressure has no unsubscribe: a hook
	// left by an earlier run() in this process sheds only its own dead
	// store.
	var shedEntries, shedBytes atomic.Int64
	if o.rt.MemBudget != "" {
		bounded := acache.NewBounded(store, int64(math.MaxInt64))
		memledger.Default().OnPressure(func(level memledger.Level, total, budget int64) {
			need := total - int64(float64(budget)*memledger.DefaultWarnFrac)
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

	rt, err := o.rt.Start(out, o.traceOut != "")
	if err != nil {
		return err
	}
	defer rt.Close()
	if o.poolStats {
		defer func() { fmt.Fprintln(out, tensor.ReadPoolStats().String()) }()
	}
	defer func() {
		if r := recover(); r != nil {
			dumpFlight(os.Stderr, "panic", o.flightOut)
			panic(r)
		}
	}()
	ledger, tracer := rt.Ledger, rt.Tracer

	// Memory observability: beside the process-wide ledger, one ledger
	// per emulated device (one named device per (lane, stage) slot), so
	// /debug/mem and the trace show the per-device 1F1B activation
	// profile next to the process view.
	sc.Pool = cluster.Nanos(stages * sc.Core.Lanes)
	devLedgers := make([]*memledger.Ledger, sc.Pool.Size())
	for i, d := range sc.Pool.Devices {
		devLedgers[i] = memledger.New(d.Name)
		devLedgers[i].ExportTo(telemetry.Default())
		defer devLedgers[i].StartSampler(0)()
	}
	if err := rt.ServeDebug(func() []*memledger.Ledger { return devLedgers }); err != nil {
		return err
	}

	ds := data.Generate(data.GenConfig{Task: task, Size: o.samples, SeqLen: 16, Vocab: 64, Seed: 7})
	trainDS, evalDS := ds.Split(0.25)

	cfg := model.Tiny()
	cfg.NumClasses = spec.NumClasses
	cfg.MaxSeq = 32

	var backbone *model.Model
	if o.pretrain > 0 {
		corpus := data.Generate(data.GenConfig{Task: data.SST2, Size: 384, SeqLen: 16, Vocab: 64, Seed: 99})
		backbone = core.PretrainBackbone(cfg, corpus, o.pretrain, 3e-3, 1)
		fmt.Fprintf(out, "pretrained backbone for %d epochs\n", o.pretrain)
	}

	// build assembles a framework for one attempt; with a snapshot it
	// restores the training state and salvages the cache so the attempt
	// continues instead of restarting. The first one built announces the
	// run and evaluates the untrained model.
	var f *core.Framework
	build := func(c core.Config, snap *checkpoint.Snapshot) (supervisor.Trainer, core.Cursor, error) {
		first := f == nil
		f = core.New(c)
		var cur core.Cursor
		if snap != nil {
			if err := f.RestoreSnapshot(snap); err != nil {
				return nil, cur, fmt.Errorf("restore snapshot: %w", err)
			}
			cur = core.Cursor{Epoch: snap.Epoch, Step: snap.Step}
			rep, err := f.SalvageCache(trainDS, batch, snap.Seed, cur)
			if err != nil {
				return nil, cur, fmt.Errorf("salvage cache: %w", err)
			}
			fmt.Fprintf(out, "cache salvage: %s\n", rep)
		} else if o.loadPath != "" {
			if _, err := checkpoint.Load(o.loadPath, f.Reference(), cfg); err != nil {
				return nil, cur, fmt.Errorf("load: %w", err)
			}
			f.AdoptReferenceWeights()
			fmt.Fprintf(out, "loaded adapters from %s\n", o.loadPath)
		}
		if first {
			fmt.Fprintf(out, "PAC fine-tuning %s: %d samples, %d epochs, %d stages × %d lanes (= %d devices)\n",
				task, trainDS.Len(), sc.Epochs, stages, sc.Core.Lanes, sc.Pool.Size())
			before := f.Evaluate(evalDS, batch)
			fmt.Fprintf(out, "before: loss %.4f, metric %.2f\n", before.Loss, before.Metric(task))
		}
		return f, cur, nil
	}

	sc.Build, sc.Data, sc.Task, sc.Out = build, trainDS, task.String(), out
	sc.Core.Model = cfg
	sc.Core.Opts = peft.Options{Reduction: 2}
	sc.Core.LR = float32(o.lr)
	sc.Core.Adam = true
	sc.Core.Cache = store
	sc.Core.Regression = spec.Regression
	sc.Core.Backbone = backbone
	sc.Core.Trace = tracer
	// Per-device memory views: the pipeline engine reserves each
	// micro-batch's retained activations in its (lane, stage) device's
	// ledger between forward and backward. Indexed like the pool
	// (device = lane·stages + stage), nil-safe past a re-plan shrink.
	sc.Core.MemFor = func(lane, stage int) *memledger.Account {
		idx := lane*stages + stage
		if idx < 0 || idx >= len(devLedgers) {
			return nil
		}
		return devLedgers[idx].Account("pipeline.activations")
	}
	sup, err := supervisor.New(*sc)
	if err != nil {
		return err
	}
	res, err := sup.Run()
	if err != nil {
		if errors.Is(err, supervisor.ErrRecoveryBudget) {
			dumpFlight(out, "unrecoverable failure", o.flightOut)
		}
		return err
	}
	dumpFlight(out, "run complete", o.flightOut)

	after := f.Evaluate(evalDS, batch)
	st := f.Cache().Stats()
	fmt.Fprintf(out, "after:  loss %.4f, metric %.2f (train loss %.4f)\n", after.Loss, after.Metric(task), res.Loss)
	fmt.Fprintf(out, "wall time %.1fs; cache: %d entries, %.1f MB, %d hits / %d puts / %d corrupt; redistributed %.1f MB\n",
		res.Elapsed.Seconds(), f.Cache().Len(), float64(f.Cache().Bytes())/1e6,
		st.Hits, st.Puts, st.Corrupt, float64(f.RedistributedBytes)/1e6)
	if res.SnapshotsWritten > 0 {
		fmt.Fprintf(out, "snapshots: %d written to %s\n", res.SnapshotsWritten, sc.SnapshotDir)
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
	if o.memReport != "" {
		if err := writeMemReport(o.memReport, ledger, devLedgers); err != nil {
			return fmt.Errorf("mem-report: %w", err)
		}
		fmt.Fprintf(out, "memory report written to %s\n", o.memReport)
	}

	if o.traceOut != "" {
		n, err := writeTrace(o.traceOut, tracer, ledger, devLedgers)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		fmt.Fprintf(out, "trace: %d events written to %s\n", n, o.traceOut)
	}

	if o.savePath != "" {
		if err := checkpoint.Save(o.savePath, task.String(), f.Reference(), cfg, uint64(f.EpochsRun())); err != nil {
			return fmt.Errorf("save: %w", err)
		}
		fmt.Fprintf(out, "saved adapters to %s\n", o.savePath)
	}
	return nil
}
