// Command benchmark measures PAC end to end on its real engines at one
// hidden-256 model shape: two fine-tune workloads and two serve
// workloads, one process per run. See README.md for what each metric
// means and why each workload exists.
//
//	go run . -workload finetune_cached [-seed N] [-seconds S] [-trace 1] [-out file]
//	go run . -selfcheck | -runs N [-workload name]
//
// The last line of standard output is the result object the driver
// reads; everything above it is for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"pac/internal/memledger"
	"pac/internal/telemetry"
	"pac/internal/tensor"
)

// workers is both GOMAXPROCS and the tensor worker count: the box the
// bounds were sized on has two cores.
const workers = 2

// buildDir is where run.sh builds, and where a run keeps checkpoints and
// the Chrome trace; it is git-ignored.
var buildDir = ".bench_build"

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	smoke    bool
}

// scale holds every count that -smoke shrinks; the model never shrinks.
type scale struct {
	setups     int // set-up repetitions; the median is reported
	ftSamples  int // fine-tune dataset size
	ftWarm     int // size of the throw-away warm-up PAC run
	clsPool    int // distinct classify requests
	clsWarm    int // warm-up requests through the handler
	genPool    int // distinct generate prompts
	genWarm    int // warm-up generations
	verify     int // generate outputs compared with direct Decode, per phase
	probeIters int // iterations of each layer probe
}

var (
	fullScale  = scale{setups: 3, ftSamples: 192, ftWarm: 32, clsPool: 96, clsWarm: 32, genPool: 64, genWarm: 7, verify: 8, probeIters: 30}
	smokeScale = scale{setups: 1, ftSamples: 32, ftWarm: 16, clsPool: 8, clsWarm: 4, genPool: 4, genWarm: 1, verify: 1, probeIters: 1}
)

// bench is the state one workload run shares: options, the trace
// recorder and tracer (nil when tracing is off), the operation tally
// and the metric values gathered so far.
type bench struct {
	opt    options
	sc     scale
	rec    *recorder
	tracer *telemetry.Tracer
	cal    *calibrator

	attempted int64
	failed    int64
	notes     []string

	e2e   map[string]float64
	layer map[string]float64
	ops   map[string]int64 // operation counts for the environment stamp

	cleanup []func() // removes what set-up wrote to disk
}

func (b *bench) traced() bool { return b.rec != nil }

// fail counts one failed operation (an error, a non-200, a wrong output
// or a failed correctness check) and keeps the reason for the report.
func (b *bench) fail(format string, args ...interface{}) {
	b.failed++
	if len(b.notes) < 20 {
		b.notes = append(b.notes, fmt.Sprintf(format, args...))
	}
}

// check counts one correctness check as an attempted operation and as a
// failed one when it does not hold.
func (b *bench) check(ok bool, format string, args ...interface{}) {
	b.attempted++
	if !ok {
		b.fail(format, args...)
	}
}

// workload is one of the four traffic shapes. setup may run several
// times (each call replaces the fixture); window is the measured part.
type workload interface {
	setup() error
	window() error
	finish()
	probes()
}

func newWorkload(b *bench) (workload, error) {
	switch b.opt.workload {
	case "finetune_cached":
		return newFinetune(b, ftSpec{stages: 2, lanes: 1, lossCeiling: 0.5, jobEpochs: 20})
	case "finetune_evict":
		return newFinetune(b, ftSpec{stages: 1, lanes: 2, evict: true, lossCeiling: 0.85, jobEpochs: 2})
	case "serve_classify":
		return newServe(b, false)
	case "serve_generate":
		return newServe(b, true)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", b.opt.workload, workloadNames)
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runWorkload(opt options) (*result, error) {
	runtime.GOMAXPROCS(workers)
	tensor.SetMaxWorkers(workers)

	b := &bench{opt: opt, sc: fullScale, cal: newCalibrator(),
		e2e: map[string]float64{}, layer: map[string]float64{}, ops: map[string]int64{}}
	if opt.smoke {
		b.sc = smokeScale
	}
	if opt.trace {
		b.sc.setups = 1
		b.rec = newRecorder()
		b.tracer = telemetry.NewTracer()
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	w, err := newWorkload(b)
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, fn := range b.cleanup {
			fn()
		}
	}()

	// Set-up runs several times and the median is reported, each run read
	// against the yardstick points taken around it.
	var setups, setupsRaw []float64
	b.cal.points3()
	first := time.Now()
	for i := 0; i < b.sc.setups; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupsRaw = append(setupsRaw, time.Since(t0).Seconds())
		b.cal.points3()
	}
	speed := b.cal.speed(first, time.Now())
	for _, s := range setupsRaw {
		setups = append(setups, s*speed)
	}
	b.e2e["setup_s"] = median(setups)
	fmt.Printf("set-up runs as measured (s): %.4f\n", setupsRaw)

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	pool0 := tensor.ReadPoolStats()
	stop, sampled := make(chan struct{}), make(chan []float64)
	go func() { sampled <- sampleRSS(stop) }()
	t0 := time.Now()
	err = w.window()
	wall := time.Since(t0).Seconds()
	close(stop)
	rssSamples := <-sampled
	if len(rssSamples) == 0 { // a window shorter than one sampling tick
		rssSamples = []float64{float64(residentBytes())}
	}
	if err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	runtime.ReadMemStats(&ms1)
	pool1 := tensor.ReadPoolStats()
	b.ops["window_ms"] = int64(wall * 1e3)

	w.finish()
	if b.traced() {
		b.runtimeMetrics(&ms0, &ms1, pool0, pool1)
		w.probes()
	}
	// The mean over the window, not the peak: the peak a Go process
	// reaches between two garbage collections differed by a fifth
	// between identical runs, the mean by a fiftieth.
	b.e2e["rss_mean_bytes"] = sum(rssSamples) / float64(len(rssSamples))
	peak, err := peakRSSBytes()
	if err != nil {
		return nil, fmt.Errorf("peak rss: %w", err)
	}
	b.layer["runtime.peak_rss_bytes"] = float64(peak)
	fmt.Printf("rss: mean over the window %.0f bytes (%d samples), peak at exit (VmHWM) %d bytes\n",
		b.e2e["rss_mean_bytes"], len(rssSamples), peak)
	return b.report(setups)
}

// runtimeMetrics fills the per-window Go runtime, tensor-pool and memory
// ledger figures of the traced run.
func (b *bench) runtimeMetrics(ms0, ms1 *runtime.MemStats, p0, p1 tensor.PoolStats) {
	ops := float64(b.attempted)
	if ops < 1 {
		ops = 1
	}
	b.layer["runtime.gc_cycles"] = float64(ms1.NumGC - ms0.NumGC)
	b.layer["runtime.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	b.layer["runtime.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / ops
	b.layer["runtime.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / ops
	gets := float64(p1.Hits - p0.Hits + p1.Misses - p0.Misses)
	b.layer["tensor.pool_gets"] = gets
	if gets > 0 {
		b.layer["tensor.pool_hit_ratio"] = float64(p1.Hits-p0.Hits) / gets
	}
	b.layer["tensor.pool_bytes_outstanding"] = float64(p1.BytesOutstanding)

	snap := memledger.Default().Snapshot()
	b.layer["memledger.total_peak_bytes"] = float64(snap.PeakBytes)
	for _, a := range snap.Accounts {
		if name, ok := ledgerMetric[a.Account]; ok {
			b.layer[name] = float64(a.PeakBytes)
		}
	}
}

// ledgerMetric maps a memory-ledger account to its per-layer metric.
var ledgerMetric = map[string]string{
	"acache":          "memledger.acache_peak_bytes",
	"pool.inuse":      "memledger.pool_inuse_peak_bytes",
	"autograd.tape":   "memledger.autograd_tape_peak_bytes",
	"parallel.frames": "memledger.parallel_frames_peak_bytes",
	"serve.inflight":  "memledger.serve_inflight_peak_bytes",
	"generate.kv":     "memledger.generate_kv_peak_bytes",
}

// report prints the human-readable lines and builds the result object:
// end-to-end metrics from an untraced run, per-layer ones from a traced
// run, never both.
func (b *bench) report(setups []float64) (*result, error) {
	stamp := b.stamp()
	blob, err := json.Marshal(stamp)
	if err != nil {
		return nil, err
	}
	fmt.Printf("env %s\n", blob)
	fmt.Printf("set-up runs at nominal speed (s): %.4f\n", setups)
	cal := b.cal.readings()
	fmt.Printf("yardstick: %d readings, median %.3f ms, quartiles %.3f–%.3f ms (nominal %.1f ms); it ran for %.2f s in all\n",
		len(cal), median(cal), percentile(cal, 25), percentile(cal, 75), nominalCalibMs, b.cal.spentTotal().Seconds())

	defs, values := endToEnd, b.e2e
	if b.traced() {
		defs, values = perLayer, b.layer
		path := b.opt.out
		if path == "" {
			path = filepath.Join(buildDir, "trace-"+b.opt.workload+".json")
		}
		spans, events := b.rec.snapshot(), b.tracer.Events()
		if err := writeChrome(path, spans, b.tracer.StartTime(), events, b.rec.t0, stamp); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace: %d benchmark spans and %d program events written to %s\n", len(spans), len(events), path)
		printSelfTimes(spans)
	}
	res := &result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.fail("metric %s is not finite", d.name)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("metric %-40s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range b.notes {
		fmt.Printf("FAILED: %s\n", n)
	}
	res.Failed = b.failed
	res.Correct = b.failed == 0
	fmt.Printf("operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	return res, nil
}

func printSelfTimes(spans []span) {
	totals := selfTimes(spans)
	names := make([]string, 0, len(totals))
	for n := range totals {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("span                               count      total_s       self_s")
	for _, n := range names {
		t := totals[n]
		fmt.Printf("%-32s %7d %12.4f %12.4f\n", n, t.Count, t.Total.Seconds(), t.Self.Seconds())
	}
}

func main() {
	var opt options
	var trace, runs int
	var selfcheck bool
	flag.StringVar(&opt.workload, "workload", "", "workload to run: finetune_cached, finetune_evict, serve_classify or serve_generate")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&opt.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 repeats the workload with tracing on and reports the per-layer metrics")
	flag.StringVar(&opt.out, "out", "", "where the traced run writes its Chrome trace (default "+buildDir+"/trace-<workload>.json)")
	flag.BoolVar(&opt.smoke, "smoke", false, "shrink every count for a quick pass over the correctness checks")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice and compare against the bounds in BENCHMARK.json")
	flag.IntVar(&runs, "runs", 0, "run the workload (or all of them) N times on seeds seed..seed+N-1 and print quartiles")
	flag.Parse()
	opt.trace = trace != 0

	var err error
	switch {
	case selfcheck:
		err = selfCheck(opt)
	case runs > 0:
		err = multiRun(opt, runs)
	default:
		var res *result
		if res, err = runWorkload(opt); err == nil {
			var blob []byte
			if blob, err = json.Marshal(res); err == nil {
				fmt.Println(string(blob))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
