// Command pac-plan runs the PAC hybrid-parallelism planner for a model
// on an edge cluster and prints the chosen configuration alongside the
// Eco-FL (pure pipeline) and EDDL (pure data parallel) baselines —
// reproducing the paper's Figure 10 for arbitrary setups.
//
// Usage:
//
//	pac-plan [-model tiny|t5-base|bart-large|t5-large] [-devices N] [-batch N]
//	         [-technique full|adapters|lora|parallel] [-seq N]
//	         [-compare [-stages N]]
//
// -compare validates the analytic cost model against this machine: it
// instantiates the model under Parallel Adapters (the one technique the
// engines run; -compare with another -technique is an error), profiles
// a calibration batch for real, and prints analytic vs measured
// per-stage seconds with the percent error — the same comparison the
// online health monitor makes continuously during training, so the
// printed worst-case error suggests a floor for pac-train's drift
// threshold. Use -model tiny unless you have the memory (and patience)
// to instantiate the full model on this host.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"pac/internal/cluster"
	"pac/internal/costmodel"
	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/parallel"
	"pac/internal/peft"
	"pac/internal/planner"
	"pac/internal/profiler"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pac-plan: %v\n", err)
		os.Exit(2)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pac-plan", flag.ContinueOnError)
	modelName := fs.String("model", "t5-base", "model: tiny, t5-base, bart-large, t5-large")
	devices := fs.Int("devices", 8, "number of Jetson Nano devices")
	batch := fs.Int("batch", 16, "mini-batch size")
	techName := fs.String("technique", "parallel", "technique: full, adapters, lora, parallel")
	seq := fs.Int("seq", 128, "encoder sequence length")
	compare := fs.Bool("compare", false, "profile the model on this host and compare analytic vs measured per-stage costs")
	compareStages := fs.Int("stages", 2, "pipeline stages for the -compare per-stage breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, ok := map[string]model.Config{
		"tiny": model.Tiny(), "t5-base": model.T5Base(), "bart-large": model.BARTLarge(), "t5-large": model.T5Large(),
	}[*modelName]
	if !ok {
		return fmt.Errorf("unknown model %q", *modelName)
	}
	kind, ok := map[string]peft.Kind{
		"full": peft.Full, "adapters": peft.Adapters, "lora": peft.LoRA, "parallel": peft.ParallelAdapters,
	}[*techName]
	if !ok {
		return fmt.Errorf("unknown technique %q", *techName)
	}
	if *compare && kind != peft.ParallelAdapters {
		return fmt.Errorf("-compare profiles Parallel Adapters, the technique the engines run, not %s", kind)
	}

	costs := costmodel.Costs{Cfg: cfg, Kind: kind, EncSeq: *seq, DecSeq: 2}
	in := planner.Input{Blocks: costs.Blocks(), Cluster: cluster.Nanos(*devices), MiniBatch: *batch}

	fmt.Fprintf(out, "model %s (%dM params), technique %s, %d× %s, batch %d, seq %d\n\n",
		cfg.Name, cfg.ParamCount()/1e6, kind, *devices, cluster.JetsonNano().Name, *batch, *seq)

	p, err := planner.New(in)
	if err != nil {
		fmt.Fprintln(out, "PAC (hybrid):  no memory-feasible configuration (OOM)")
	} else {
		fmt.Fprintf(out, "PAC (hybrid):  %s\n", p)
		if ev, ok := planner.Evaluate(p, in); ok {
			for k, st := range p.Stages {
				busy := ""
				if k < len(ev.StageSec) {
					busy = fmt.Sprintf("busy %.3fs/step, ", ev.StageSec[k])
				}
				fmt.Fprintf(out, "  stage %d: blocks [%d,%d) on %d device(s), %speak %.2f GiB, inflight ≤%d\n",
					k, st.StartBlock, st.EndBlock, len(st.Devices), busy,
					float64(ev.PeakMemory[k].Total())/(1<<30), ev.PeakInflight[k])
			}
		}
	}

	pp := planner.PipelineOnly(in)
	if math.IsInf(pp.StepSec, 1) {
		fmt.Fprintln(out, "Eco-FL (PP):   OOM")
	} else {
		fmt.Fprintf(out, "Eco-FL (PP):   %s\n", pp)
	}
	dp := planner.DataParallel(in)
	if math.IsInf(dp.StepSec, 1) {
		fmt.Fprintln(out, "EDDL (DP):     OOM")
	} else {
		fmt.Fprintf(out, "EDDL (DP):     step %.3fs (full replica per device)\n", dp.StepSec)
	}

	if *compare {
		return runCompare(out, cfg, *compareStages, *batch, *seq)
	}
	return nil
}

// runCompare instantiates the model for real, profiles a calibration
// batch on this host, and prints analytic vs measured per-stage seconds
// side by side. Both columns use the host's calibrated throughput as
// the device baseline, so the residual error is purely the analytic
// model's FLOP distribution vs where the time was actually spent — the
// same comparison pac-train's health monitor makes online, which makes
// the printed worst-case error a floor for its drift threshold.
func runCompare(out io.Writer, cfg model.Config, stages, batch, seq int) error {
	if stages < 1 {
		return fmt.Errorf("compare needs at least 1 stage, got %d", stages)
	}
	if seq > cfg.MaxSeq {
		seq = cfg.MaxSeq
	}
	vocab := cfg.Vocab
	if vocab > 64 {
		vocab = 64 // calibration tokens only need to be in range
	}
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: batch, SeqLen: seq, Vocab: vocab, Seed: 7})
	b := data.BatchOf(ds.Examples[:min(batch, len(ds.Examples))])

	opts := peft.Options{Reduction: 2}
	prof := profiler.Measure(peft.NewParallel(model.New(cfg), opts), b, 2)

	analytic := costmodel.Costs{Cfg: cfg, Kind: peft.ParallelAdapters, Opts: opts, EncSeq: len(b.Enc[0]), DecSeq: len(b.Dec[0])}.Blocks()
	nano := cluster.JetsonNano()
	dev := prof.CalibrateDevice("this-host", nano.MemoryBytes, nano.LinkMbps)
	measuredBlocks, err := prof.ToBlockCosts(analytic, dev)
	if err != nil {
		return err
	}
	bounds := parallel.EvenBoundaries(len(analytic), stages)
	pred := costmodel.StageSeconds(analytic, bounds, b.Size(), dev)
	meas := costmodel.StageSeconds(measuredBlocks, bounds, b.Size(), dev)

	fmt.Fprintf(out, "\ncost-model comparison: %d stage(s), batch %d, %.1f effective GFLOPS on this host\n",
		stages, b.Size(), prof.EffectiveGFLOPS)
	fmt.Fprintf(out, "%8s %14s %14s %10s\n", "stage", "analytic (s)", "measured (s)", "error")
	worst := 0.0
	for s := range pred {
		errPct := 0.0
		if meas[s] > 0 {
			errPct = (pred[s] - meas[s]) / meas[s] * 100
		}
		if a := math.Abs(errPct); a > worst {
			worst = a
		}
		fmt.Fprintf(out, "%8d %14.4f %14.4f %9.1f%%\n", s, pred[s], meas[s], errPct)
	}
	fmt.Fprintf(out, "worst per-stage error %.1f%%: drift thresholds below %.2f× would false-alarm on model error alone\n",
		worst, 1+worst/100)
	return nil
}
