// Command pac-serve hosts a personal LLM over HTTP: classification and
// generation endpoints backed by one Parallel Adapters side network over
// a frozen backbone, with checkpoint hot-swap — the serving half of the
// paper's Figure 1 agent.
//
// Usage:
//
//	pac-serve [-addr :8080] [-lm] [-vocab N] [-adapters FILE]
//	          [-telemetry-addr HOST:PORT] [-flight-size N] [-trace-sample P]
//	          [-mem-budget BYTES] [-backend generic|int8] [-workers N]
//
// Endpoints: POST /classify, POST /generate, POST /swap, GET /stats,
// GET /metrics (Prometheus text). Requests may carry a "user" field for
// per-user attribution (/stats reports the distinct user count); each
// request runs under its connection context, so a client that
// disconnects before its request reaches the model is dropped without
// counting as served. POST /swap loads the checkpoint into a copy of the
// side network and publishes the copy with one pointer store: requests
// never wait for a swap, and each runs wholly on the side network it
// started with. -telemetry-addr additionally serves the debug mux
// (/metrics, /debug/vars, /debug/pprof, /debug/flight — the
// flight-recorder ring of recent weight swaps as JSON — and /debug/mem,
// the memory ledger's per-subsystem byte breakdown and timeline) on a
// separate address, keeping profiling off the public API port.
// -mem-budget arms the ledger's pressure watermarks: warn and critical
// crossings record flight events and count in pac_mem_pressure_total.
//
// -trace-sample P enables causal request tracing: requests carrying an
// X-Pac-Trace header join the caller's trace (the server's spans nest
// under the client span and the header echoes on the response);
// headerless requests are head-sampled at probability P. Spans record
// into a bounded ring (overwrites count in pac_trace_dropped_total) and
// export as Chrome JSON at the telemetry address's /debug/trace for
// Perfetto or pac-trace.
//
// -backend int8 serves the frozen backbone through its int8 weight
// forms (built once at startup); adapters and every swap stay fp32.
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
	"io"
	"net"
	"net/http"
	"os"

	"pac/internal/checkpoint"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/runtimecfg"
	"pac/internal/serve"
	"pac/internal/telemetry"
	"pac/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintf(os.Stderr, "pac-serve: %v\n", err)
		os.Exit(1)
	}
}

// options holds every flag's value; the six process-wide flags live in
// runtimecfg, shared with pac-train.
type options struct {
	rt runtimecfg.Config

	addr, adapters string
	lm             bool
	vocab          int
}

// newFlags defines the command's flag surface (pinned by TestFlagSurface).
func newFlags() (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("pac-serve", flag.ContinueOnError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.BoolVar(&o.lm, "lm", false, "serve a language model (enables /generate)")
	fs.IntVar(&o.vocab, "vocab", 64, "vocabulary size")
	fs.StringVar(&o.adapters, "adapters", "", "checkpoint to load at startup")
	o.rt.RegisterFlags(fs, runtimecfg.Config{Backend: "generic", FlightSize: 128})
	return fs, o
}

// run is the whole command behind a testable seam: flags in, log lines
// on out, error instead of os.Exit, process globals left as found. It
// serves until the listener fails or is closed; ready, when non-nil, is
// handed the bound API listener just before serving starts.
func run(args []string, out io.Writer, ready func(net.Listener)) error {
	fs, o := newFlags()
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Request tracing: spans record into a bounded ring served at
	// /debug/trace; clients carrying X-Pac-Trace join their own trace,
	// headerless requests are head-sampled at -trace-sample.
	rt, err := o.rt.Start(out, o.rt.TraceSample > 0)
	if err != nil {
		return err
	}
	defer rt.Close()
	tracer := rt.Tracer

	// pac-train's model shape, so its -save checkpoints load and swap in.
	cfg := model.Tiny()
	cfg.Vocab = o.vocab
	cfg.MaxSeq = 32
	if o.lm {
		cfg.NumClasses = o.vocab
		cfg.LM = true
	}

	// One frozen backbone, quantized once when the tensor backend
	// computes in int8, under one side network. A swap publishes a new
	// side network and never writes the backbone, so the int8 scales stay
	// those of the weights that serve.
	m := model.New(cfg)
	side := peft.NewParallel(m, peft.Options{Reduction: 2}) // freezes m
	if o.adapters != "" {
		if _, err := checkpoint.Load(o.adapters, side, cfg); err != nil {
			return err
		}
		fmt.Fprintf(out, "loaded adapters from %s\n", o.adapters)
	}
	if tensor.BackendQuantized() {
		m.QuantizeBackbone()
	}
	srv := serve.NewServer(side, cfg)
	srv.SetTracer(tracer, telemetry.PidServe, "pac-serve")

	// The debug mux is the process-wide surface (tensor pool, GC, flight
	// ring, span dump, memory ledger); per-request serving metrics stay
	// on the API port's /metrics and /stats.
	if err := rt.ServeDebug(nil); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Fprintf(out, "serving %s (lm=%v, vocab=%d, backend=%s) on %s\n", cfg.Name, o.lm, o.vocab, tensor.ActiveBackend().Name(), ln.Addr())
	if ready != nil {
		ready(ln)
	}
	return http.Serve(ln, serve.HandlerFor(srv))
}
