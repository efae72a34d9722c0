// Package runtimecfg is the process set-up pac-train and pac-serve
// share: the five flags that choose the tensor runtime (-workers,
// -backend), the debug listener (-telemetry-addr), span sampling
// (-trace-sample) and the memory budget (-mem-budget), and the one
// sequence that applies them, which also turns on the flight recorder.
//
// Everything Start touches is a process global (the active tensor
// backend, the kernel worker bound, the flight recorder, the process
// ledger's watermarks), so Close puts each back the way Start found it:
// a command's run() can then be called repeatedly in one test process
// without one call's flags leaking into the next.
package runtimecfg

import (
	"flag"
	"fmt"
	"io"

	"pac/internal/health"
	"pac/internal/memledger"
	"pac/internal/telemetry"
	"pac/internal/tensor"
)

// Config holds the shared flag values, one field per flag.
type Config struct {
	Workers       int
	Backend       string
	TelemetryAddr string
	TraceSample   float64
	MemBudget     string
}

// RegisterFlags defines the shared flags on fs, storing into c.
// defaults carries the per-command defaults (a training trace records
// every step, a server samples nothing until asked).
func (c *Config) RegisterFlags(fs *flag.FlagSet, defaults Config) {
	fs.IntVar(&c.Workers, "workers", defaults.Workers, "kernel worker goroutines for tensor ops (0 = GOMAXPROCS default)")
	fs.StringVar(&c.Backend, "backend", defaults.Backend, "tensor compute backend: generic | int8 (int8 quantizes the frozen backbone)")
	fs.StringVar(&c.TelemetryAddr, "telemetry-addr", defaults.TelemetryAddr, "serve the debug mux (/metrics, /debug/vars, /debug/pprof, /debug/flight, /debug/mem, /debug/trace) on this address (empty disables)")
	fs.Float64Var(&c.TraceSample, "trace-sample", defaults.TraceSample, "fraction of root operations (training steps, requests without an X-Pac-Trace header) recorded as causal span trees")
	fs.StringVar(&c.MemBudget, "mem-budget", defaults.MemBudget, "arm the process memory ledger with this byte budget (e.g. 256MiB): watermark crossings record flight events and count in pac_mem_pressure_total (empty disables)")
}

// Runtime is a started process set-up. Ledger is the process memory
// ledger every instrumented subsystem accounts into; Tracer is nil
// unless Start was asked for one.
type Runtime struct {
	Ledger *memledger.Ledger
	Tracer *telemetry.Tracer

	out  io.Writer
	addr string
	undo []func() // run in reverse by Close
}

// flightSize is the flight recorder's ring capacity in events.
const flightSize = 256

// Start validates c, then applies it: worker bound, backend, flight
// recorder, tracer (when trace is set; sampled at -trace-sample),
// memory budget at the default watermarks, ledger export and timeline
// sampler. Nothing is changed when it returns an error. A pressure hook
// must be subscribed to the process ledger before Start, because arming
// the budget evaluates the current total at once and a crossing that
// finds no subscriber is not repeated.
func (c Config) Start(out io.Writer, trace bool) (*Runtime, error) {
	budget, err := memledger.ParseBytes(c.MemBudget)
	if err != nil {
		return nil, err
	}
	prevBackend := tensor.ActiveBackend().Name()
	if err := tensor.SetBackend(c.Backend); err != nil {
		return nil, err
	}
	rt := &Runtime{Ledger: memledger.Default(), out: out, addr: c.TelemetryAddr}
	rt.undo = append(rt.undo, func() { _ = tensor.SetBackend(prevBackend) }) // it was active, so it is registered
	if c.Workers > 0 {
		prev := tensor.SetMaxWorkers(c.Workers)
		rt.undo = append(rt.undo, func() { tensor.SetMaxWorkers(prev) })
	}
	// The flight recorder runs for the whole process: a fixed-size ring
	// every subsystem appends structured events to.
	health.Enable(flightSize)
	rt.undo = append(rt.undo, health.Disable)
	if trace {
		rt.Tracer = telemetry.NewTracerCap(telemetry.DefaultTraceCap)
		rt.Tracer.SetSampleRate(c.TraceSample)
	}
	if c.MemBudget != "" {
		rt.Ledger.SetBudget(budget, memledger.DefaultWarnFrac, memledger.DefaultCritFrac)
		rt.undo = append(rt.undo, func() { rt.Ledger.SetBudget(0, 0, 0) })
		fmt.Fprintf(out, "memory budget: %.1f MB (warn %.0f%%, critical %.0f%%)\n",
			float64(budget)/1e6, memledger.DefaultWarnFrac*100, memledger.DefaultCritFrac*100)
	}
	rt.Ledger.ExportTo(telemetry.Default())
	rt.undo = append(rt.undo, rt.Ledger.StartSampler(0))
	return rt, nil
}

// ServeDebug starts the debug mux on -telemetry-addr (a no-op when the
// flag is empty): the process-wide surface — tensor pool, GC, flight
// ring, span dump, and /debug/mem with the given per-device ledgers
// (nil for a process that has none). Close stops the listener.
func (rt *Runtime) ServeDebug(devices func() []*memledger.Ledger) error {
	if rt.addr == "" {
		return nil
	}
	mux := telemetry.NewDebugMux(telemetry.Default(), rt.Tracer,
		telemetry.Extra{Path: "/debug/flight", Handler: health.Flight()},
		telemetry.Extra{Path: "/debug/mem", Handler: memledger.Handler(rt.Ledger, devices)})
	ln, err := telemetry.Serve(rt.addr, mux)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	rt.undo = append(rt.undo, func() { _ = ln.Close() })
	fmt.Fprintf(rt.out, "telemetry: http://%s/metrics\n", ln.Addr())
	return nil
}

// Close stops what Start and ServeDebug started and restores what they
// changed, newest first: listener and sampler stopped, budget disarmed,
// flight recorder off, previous worker bound and backend back.
func (rt *Runtime) Close() {
	for i := len(rt.undo) - 1; i >= 0; i-- {
		rt.undo[i]()
	}
	rt.undo = nil
}
