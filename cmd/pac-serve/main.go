// Command pac-serve hosts a personal LLM over HTTP: classification and
// generation endpoints backed by a Parallel-Adapters replica, with
// checkpoint hot-swap — the serving half of the paper's Figure 1 agent.
//
// Usage:
//
//	pac-serve [-addr :8080] [-lm] [-vocab N] [-adapters FILE]
//	          [-replicas N] [-min-replicas N] [-fleet-journal FILE]
//	          [-telemetry-addr HOST:PORT] [-flight-size N]
//	          [-trace-sample P] [-trace-cap N]
//	          [-mem-budget BYTES] [-mem-warn-frac F] [-mem-crit-frac F]
//	          [-backend generic|int8]
//
// Endpoints: POST /classify, POST /generate, POST /swap, GET /stats,
// GET /metrics (Prometheus text). Requests may carry a "user" field for
// per-user attribution (/stats reports the distinct user count); each
// request runs under its connection context, so a client that
// disconnects while queued behind a weight swap is dropped without
// counting as served. -telemetry-addr additionally serves the debug mux
// (/metrics, /debug/vars, /debug/pprof, /debug/flight — the
// flight-recorder ring of recent weight swaps as JSON — and /debug/mem,
// the memory ledger's per-subsystem byte breakdown and timeline) on a
// separate address, keeping profiling off the public API port.
// -mem-budget arms the ledger's pressure watermarks: warn and critical
// crossings record flight events and count in pac_mem_pressure_total.
//
// -replicas N > 1 hosts a fleet.ReplicaSet of N identical replicas
// behind the same API instead of a single server. Requests round-robin
// over in-service replicas, POST /swap becomes a goal-state rolling
// operation (each replica is drained, quiesced, snapshotted, swapped,
// and rejoined in turn, never dropping below the -min-replicas floor —
// zero-downtime by construction), GET /fleet/status reports the
// observed fleet and last rollout plan, and -fleet-journal makes
// rollouts crash-resumable.
//
// -trace-sample P enables causal request tracing: requests carrying an
// X-Pac-Trace header join the caller's trace (router and replica spans
// nest under the client span and the header echoes on the response);
// headerless requests are head-sampled at probability P. Spans record
// into a bounded ring (-trace-cap; overwrites count in
// pac_trace_dropped_total) and export as Chrome JSON at the telemetry
// address's /debug/trace for Perfetto or pac-trace.
//
// -backend int8 serves the frozen backbone through its int8 weight
// forms (built once at load); adapters and every swap stay fp32.
//
// pac-loadgen replays seeded multi-user traces against this API and
// gates latency/throughput SLOs.
//
// Example session:
//
//	pac-train -save adapters.pack
//	pac-serve -adapters adapters.pack &
//	curl -d '{"tokens":[[17,33,21,54]],"user":7}' localhost:8080/classify
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"pac/internal/checkpoint"
	"pac/internal/fleet"
	"pac/internal/health"
	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/serve"
	"pac/internal/telemetry"
	"pac/internal/tensor"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	lm := flag.Bool("lm", false, "serve a language model (enables /generate)")
	vocab := flag.Int("vocab", 64, "vocabulary size")
	adapters := flag.String("adapters", "", "checkpoint to load at startup")
	replicas := flag.Int("replicas", 1, "serving replicas behind the fleet router (>1 makes /swap a zero-downtime rolling operation)")
	minReplicas := flag.Int("min-replicas", 1, "in-service floor during rolling operations (fleet mode)")
	fleetJournal := flag.String("fleet-journal", "", "crash-resume journal for rolling operations (fleet mode; empty disables)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve the debug mux (/metrics, /debug/vars, /debug/pprof, /debug/flight, /debug/trace) on this address (empty disables)")
	flightSize := flag.Int("flight-size", 128, "flight-recorder ring capacity in events (0 disables)")
	workers := flag.Int("workers", 0, "kernel worker goroutines for tensor ops (0 = GOMAXPROCS default)")
	backendName := flag.String("backend", "generic", "tensor compute backend: generic | int8 (int8 quantizes the frozen backbone at load)")
	traceSample := flag.Float64("trace-sample", 0, "request-trace sampling probability for requests without an X-Pac-Trace header (0 disables tracing)")
	traceCap := flag.Int("trace-cap", telemetry.DefaultTraceCap, "span ring-buffer capacity (older spans overwritten)")
	memBudget := flag.String("mem-budget", "", "arm the process memory ledger with this byte budget (e.g. 256MiB): watermark crossings record flight events and bump pac_mem_pressure_total (empty disables)")
	memWarnFrac := flag.Float64("mem-warn-frac", memledger.DefaultWarnFrac, "warn watermark as a fraction of -mem-budget")
	memCritFrac := flag.Float64("mem-crit-frac", memledger.DefaultCritFrac, "critical watermark as a fraction of -mem-budget")
	flag.Parse()

	if *workers > 0 {
		tensor.SetMaxWorkers(*workers)
	}
	if err := tensor.SetBackend(*backendName); err != nil {
		fmt.Fprintf(os.Stderr, "pac-serve: %v\n", err)
		os.Exit(1)
	}
	if *flightSize > 0 {
		health.Enable(*flightSize)
		defer health.Disable()
	}

	// Memory observability: every instrumented subsystem (tensor pool,
	// in-flight requests, KV caches, transport frames) accounts into the
	// process ledger; /debug/mem serves the breakdown and timeline, and
	// -mem-budget arms the pressure watermarks.
	ledger := memledger.Default()
	if *memBudget != "" {
		budget, err := memledger.ParseBytes(*memBudget)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pac-serve: %v\n", err)
			os.Exit(1)
		}
		ledger.SetBudget(budget, *memWarnFrac, *memCritFrac)
		fmt.Printf("memory budget: %.1f MB (warn %.0f%%, critical %.0f%%)\n",
			float64(budget)/1e6, *memWarnFrac*100, *memCritFrac*100)
	}
	ledger.ExportTo(telemetry.Default())
	stopSampler := ledger.StartSampler(0)
	defer stopSampler()

	cfg := model.Tiny()
	cfg.Vocab = *vocab
	cfg.MaxSeq = 64
	if *lm {
		cfg.NumClasses = *vocab
		cfg.LM = true
	}

	// Request tracing: spans record into a bounded ring served at
	// /debug/trace; clients carrying X-Pac-Trace join their own trace,
	// headerless requests are head-sampled at -trace-sample.
	var tracer *telemetry.Tracer
	if *traceSample > 0 {
		tracer = telemetry.NewTracerCap(*traceCap)
		tracer.SetSampleRate(*traceSample)
	}

	// Backend: a single server, or a replica fleet whose /swap is an
	// orchestrated zero-downtime rolling operation.
	var backend serve.Backend
	newReplica := func() (*serve.Server, error) {
		m := model.New(cfg)
		tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 2})
		if *adapters != "" {
			if _, err := checkpoint.Load(*adapters, tech, cfg); err != nil {
				return nil, err
			}
		}
		if tensor.BackendQuantized() {
			// After the checkpoint load so scales see the weights that
			// will actually serve (swaps replace adapters only, never
			// the frozen backbone).
			if q, ok := tech.(peft.BackboneQuantizer); ok {
				q.QuantizeBackbone()
			}
		}
		return serve.NewServer(tech, cfg), nil
	}
	if *replicas > 1 {
		rs := fleet.NewReplicaSet()
		rs.MinReplicas = *minReplicas
		rs.JournalPath = *fleetJournal
		rs.SetTracer(tracer, telemetry.PidServe)
		for i := 0; i < *replicas; i++ {
			srv, err := newReplica()
			if err != nil {
				fmt.Fprintf(os.Stderr, "pac-serve: replica %d: %v\n", i, err)
				os.Exit(1)
			}
			name := fmt.Sprintf("replica-%d", i)
			srv.SetTracer(tracer, telemetry.PidServe+1+i, name)
			rs.Add(name, 0, srv)
		}
		backend = rs
		fmt.Printf("fleet: %d replicas, floor %d\n", *replicas, *minReplicas)
	} else {
		srv, err := newReplica()
		if err != nil {
			fmt.Fprintf(os.Stderr, "pac-serve: %v\n", err)
			os.Exit(1)
		}
		srv.SetTracer(tracer, telemetry.PidServe+1, "replica-0")
		backend = srv
	}
	if *adapters != "" {
		fmt.Printf("loaded adapters from %s\n", *adapters)
	}

	if *telemetryAddr != "" {
		// The debug mux is the process-wide surface (tensor pool, GC,
		// flight ring, span dump); per-request serving metrics stay on
		// the API port's /metrics and /stats.
		mux := telemetry.NewDebugMux(telemetry.Default(), tracer,
			telemetry.Extra{Path: "/debug/flight", Handler: health.Flight()},
			telemetry.Extra{Path: "/debug/mem", Handler: memledger.Handler(ledger, nil)})
		ln, err := telemetry.Serve(*telemetryAddr, mux)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pac-serve: telemetry: %v\n", err)
			os.Exit(1)
		}
		defer ln.Close()
		fmt.Printf("telemetry: http://%s/metrics\n", ln.Addr())
	}

	fmt.Printf("serving %s (lm=%v, vocab=%d, backend=%s) on %s\n", cfg.Name, *lm, *vocab, tensor.ActiveBackend().Name(), *addr)
	if err := http.ListenAndServe(*addr, serve.HandlerFor(backend)); err != nil {
		fmt.Fprintf(os.Stderr, "pac-serve: %v\n", err)
		os.Exit(1)
	}
}
