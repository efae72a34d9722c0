// Command pac-loadgen replays deterministic multi-user request traces
// against the serving stack and gates the measured throughput and
// latency percentiles against an SLO budget.
//
// Usage:
//
//	pac-loadgen [-seed N] [-users N] [-zipf S] [-qps Q] [-burst F]
//	            [-burst-every D] [-burst-len D] [-mix FRAC] [-duration D]
//	            [-seq N] [-vocab N] [-max-len N]
//	            [-trace-in FILE | -trace-out FILE] [-dry]
//	            [-target URL] [-speedup F] [-train] [-workers N]
//	            [-slo JSON|FILE] [-report FILE]
//	            [-trace-sample P] [-span-out FILE] [-tail-spans N]
//
// A trace is a pure function of its seed and shape flags: Zipf-skewed
// user popularity (-zipf), open-loop Poisson arrivals at -qps with
// burst phases (-burst × rate for -burst-len out of every -burst-every),
// and a classify/generate mix (-mix = generate fraction). -trace-out
// saves the synthesized trace; -trace-in replays a saved trace
// bit-identically (same users, arrival offsets, tokens). -dry
// synthesizes and saves without replaying.
//
// By default requests dispatch into an in-process serve.Server; -target
// replays against a running pac-serve over HTTP instead. -train runs
// PAC fine-tuning concurrently in-process — the paper's Figure-1 agent
// under serving load — pushing the tuned adapters to the live server
// when the backbone configs match. -speedup compresses the trace
// timeline for quick smoke runs.
//
// -span-out (or -trace-sample > 0) turns on causal request tracing:
// every request carries a TraceContext — propagated over the
// X-Pac-Trace header to HTTP targets — head-sampled requests record
// full distributed trees, and the tail sampler force-traces the
// -tail-spans slowest requests per op so the report's p99 always names
// concrete trace IDs (analyzable with pac-trace).
//
// -report writes the JSON report (per-op issued/ok/errors/canceled,
// throughput, p50/p95/p99 with p99 trace exemplars). -slo supplies a budget as inline JSON or a
// file, e.g. {"per_op":{"classify":{"p99":0.25,"min_qps":50}}}; any
// violation is printed, recorded in the report, and fails the run with
// exit status 1.
//
// Example:
//
//	pac-loadgen -seed 7 -users 50 -zipf 1.1 -qps 120 -burst 3 -mix 0.05 \
//	            -duration 5s -trace-out trace.json -report serve-report.json \
//	            -slo '{"per_op":{"classify":{"p99":0.5,"min_qps":20}}}'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"time"

	"pac/internal/core"
	"pac/internal/data"
	"pac/internal/loadgen"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/serve"
	"pac/internal/telemetry"
	"pac/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pac-loadgen: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags in, log lines
// and the rendered report on out, error instead of os.Exit.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pac-loadgen", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "trace synthesis seed")
	users := fs.Int("users", 50, "user population size")
	zipf := fs.Float64("zipf", 1.1, "user popularity skew (0 = uniform)")
	qps := fs.Float64("qps", 100, "baseline mean arrival rate (requests/sec)")
	burst := fs.Float64("burst", 1, "arrival rate multiplier during burst phases (1 = none)")
	burstEvery := fs.Duration("burst-every", time.Second, "burst cycle period")
	burstLen := fs.Duration("burst-len", 200*time.Millisecond, "burst duration per cycle")
	mix := fs.Float64("mix", 0, "fraction of generate requests (rest classify)")
	duration := fs.Duration("duration", 5*time.Second, "trace duration")
	seqLen := fs.Int("seq", 16, "max request sequence length (min 4)")
	vocab := fs.Int("vocab", 64, "vocabulary size")
	maxLen := fs.Int("max-len", 4, "max decode length for generate requests")
	traceOut := fs.String("trace-out", "", "save the trace to FILE")
	traceIn := fs.String("trace-in", "", "replay a saved trace instead of synthesizing")
	dry := fs.Bool("dry", false, "synthesize/load and save only; skip the replay")
	target := fs.String("target", "", "replay against a pac-serve URL (empty = in-process server)")
	speedup := fs.Float64("speedup", 1, "timeline compression factor")
	train := fs.Bool("train", false, "run PAC fine-tuning concurrently (in-process target only)")
	workers := fs.Int("workers", 0, "kernel worker goroutines (0 = GOMAXPROCS default)")
	slo := fs.String("slo", "", "SLO budget: inline JSON or a file path (empty disables the gate)")
	report := fs.String("report", "", "write the JSON report to FILE")
	traceSample := fs.Float64("trace-sample", 0, "head-sampling probability for request traces (tail p99 exemplars always trace)")
	spanOut := fs.String("span-out", "", "write the client-side span dump (Chrome JSON) to FILE; enables tracing")
	tailSpans := fs.Int("tail-spans", 8, "slowest requests per op force-traced for p99 exemplars (-1 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers > 0 {
		tensor.SetMaxWorkers(*workers)
	}

	// Trace: load or synthesize.
	var tr *loadgen.Trace
	if *traceIn != "" {
		var err error
		if tr, err = loadgen.Load(*traceIn); err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded trace %s: seed %d, %d requests over %v\n",
			*traceIn, tr.Config.Seed, len(tr.Requests), tr.Span().Round(time.Millisecond))
	} else {
		tr = loadgen.Synthesize(loadgen.SynthConfig{
			Seed: *seed, Users: *users, Zipf: *zipf,
			QPS: *qps, Burst: *burst, BurstEvery: *burstEvery, BurstLen: *burstLen,
			GenFrac: *mix, Duration: *duration,
			SeqLen: *seqLen, Vocab: *vocab, MaxLen: *maxLen,
		})
		fmt.Fprintf(out, "synthesized trace: seed %d, %d requests, %d users over %v\n",
			*seed, len(tr.Requests), tr.DistinctUsers(), tr.Span().Round(time.Millisecond))
	}
	if len(tr.Requests) == 0 {
		return fmt.Errorf("trace is empty (raise -qps or -duration)")
	}
	if *traceOut != "" {
		if err := tr.Save(*traceOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *traceOut)
	}
	if *dry {
		return nil
	}

	// SLO budget parses before the (expensive) replay.
	var budget *loadgen.SLOBudget
	if *slo != "" {
		b, err := loadgen.ParseSLO(*slo)
		if err != nil {
			return err
		}
		budget = &b
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Tracing: every request carries a TraceContext (over X-Pac-Trace
	// for HTTP targets); sampled requests and the slowest tail record
	// client spans, and -span-out dumps them for pac-trace.
	var tracer *telemetry.Tracer
	if *spanOut != "" || *traceSample > 0 {
		tracer = telemetry.NewTracer()
	}

	// Target: remote pac-serve or an in-process server.
	var tgt loadgen.Target
	var stopTrain func()
	if *target != "" {
		if *train {
			return fmt.Errorf("-train requires the in-process target")
		}
		tgt = loadgen.HTTPTarget{Base: *target}
		fmt.Fprintf(out, "target: %s\n", *target)
	} else {
		cfg := model.Tiny()
		cfg.Vocab = tr.Config.Vocab
		if cfg.Vocab < 4 {
			cfg.Vocab = 64
		}
		if cfg.MaxSeq < tr.Config.SeqLen {
			cfg.MaxSeq = tr.Config.SeqLen
		}
		if tr.HasOp(loadgen.OpGenerate) {
			cfg.NumClasses = cfg.Vocab
			cfg.LM = true
		}
		srv := serve.NewServer(peft.NewParallel(model.New(cfg), peft.Options{Reduction: 2}), cfg)
		if tracer != nil {
			// One dump holds client and server spans: full trees without
			// a second export.
			srv.SetTracer(tracer, telemetry.PidServe+1, "in-process")
		}
		tgt = srv
		fmt.Fprintf(out, "target: in-process %s (lm=%v, vocab=%d)\n", cfg.Name, cfg.LM, cfg.Vocab)
		if *train {
			stopTrain = concurrentTrainer(ctx, out, srv, cfg)
		}
	}

	rep, err := loadgen.Run(ctx, tr, tgt, loadgen.RunOptions{
		Speedup: *speedup, Tracer: tracer, TraceSample: *traceSample, TailSpans: *tailSpans,
	})
	if stopTrain != nil {
		stopTrain()
	}
	if err != nil {
		return err
	}
	if *spanOut != "" {
		if err := tracer.WriteFile(*spanOut); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (%d span events)\n", *spanOut, tracer.Len())
	}

	var sloErr error
	if budget != nil {
		sloErr = budget.Gate(rep)
	}
	fmt.Fprint(out, rep.Render())
	if *report != "" {
		if err := os.WriteFile(*report, rep.JSON(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *report)
	}
	return sloErr
}

// concurrentTrainer fine-tunes a PAC framework in the background while
// the replay runs — the Figure-1 agent serving under training load —
// and pushes each round's adapters to the server when the serving
// replica shares the classifier layout. The returned func stops the
// loop and waits for it.
func concurrentTrainer(ctx context.Context, out io.Writer, srv *serve.Server, serveCfg model.Config) func() {
	tctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	push := !serveCfg.LM // LM serving replicas have a different head layout
	if !push {
		fmt.Fprintln(out, "train: concurrent fine-tuning (classifier replica; adapters not pushed to the LM server)")
	} else {
		fmt.Fprintln(out, "train: concurrent fine-tuning, pushing adapters to the live server each round")
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cfg := model.Tiny()
		cfg.Vocab = serveCfg.Vocab
		cfg.MaxSeq = serveCfg.MaxSeq
		ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 32, SeqLen: 8, Vocab: cfg.Vocab, Seed: 13})
		f := core.New(core.Config{Model: cfg, Opts: peft.Options{Reduction: 2},
			Stages: 1, Lanes: 1, LR: 0.02})
		rounds, pushes := 0, 0
		for tctx.Err() == nil {
			if _, err := f.FineTune(ds, 8, 1, 1); err != nil {
				fmt.Fprintf(out, "train: %v\n", err)
				return
			}
			rounds++
			if push {
				srv.UpdateWeights(nn.FlattenParams(f.Reference().Trainable()))
				pushes++
			}
		}
		fmt.Fprintf(out, "train: %d fine-tuning rounds during replay (%d adapter pushes)\n", rounds, pushes)
	}()
	return func() {
		cancel()
		wg.Wait()
	}
}
