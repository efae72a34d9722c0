package runtimecfg

import (
	"flag"
	"io"
	"net"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"pac/internal/health"
	"pac/internal/memledger"
	"pac/internal/tensor"
)

func TestRegisterFlags(t *testing.T) {
	var c Config
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c.RegisterFlags(fs, Config{Backend: "generic", FlightSize: 128})
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	want := []string{"backend", "flight-size", "mem-budget", "telemetry-addr", "trace-sample", "workers"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("flags %v, want %v", names, want)
	}
	if n := reflect.TypeOf(c).NumField(); n != len(want) {
		t.Errorf("Config has %d fields for %d flags", n, len(want))
	}
	if err := fs.Parse([]string{"-workers", "2", "-mem-budget", "8MiB"}); err != nil {
		t.Fatal(err)
	}
	if want := (Config{Workers: 2, Backend: "generic", FlightSize: 128, MemBudget: "8MiB"}); c != want {
		t.Errorf("parsed %+v, want %+v", c, want)
	}
}

// TestStartCloseRestores: Close undoes each process-global change Start
// made, and a Start that fails makes none.
func TestStartCloseRestores(t *testing.T) {
	backend, workers := tensor.ActiveBackend().Name(), tensor.MaxWorkers()
	ledger := memledger.Default()
	asFound := func(when string) {
		t.Helper()
		if got := tensor.ActiveBackend().Name(); got != backend {
			t.Errorf("%s: backend %q, want %q", when, got, backend)
		}
		if got := tensor.MaxWorkers(); got != workers {
			t.Errorf("%s: %d workers, want %d", when, got, workers)
		}
		if b, _, _ := ledger.Budget(); b != 0 {
			t.Errorf("%s: budget %d still armed", when, b)
		}
		if health.Flight() != nil {
			t.Errorf("%s: flight recorder still on", when)
		}
	}

	var out strings.Builder
	cfg := Config{Workers: workers + 1, Backend: "int8", FlightSize: 8, TraceSample: 0.5,
		MemBudget: "1GiB", TelemetryAddr: "127.0.0.1:0"}
	rt, err := cfg.Start(&out, true)
	if err != nil {
		t.Fatal(err)
	}
	if tensor.ActiveBackend().Name() != "int8" || tensor.MaxWorkers() != workers+1 ||
		health.Flight() == nil || rt.Tracer == nil || rt.Ledger != ledger {
		t.Errorf("Start did not apply %+v", cfg)
	}
	if b, warn, crit := ledger.Budget(); b != 1<<30 || warn != memledger.DefaultWarnFrac || crit != memledger.DefaultCritFrac {
		t.Errorf("budget %d at %v/%v, want 1 GiB at the default watermarks", b, warn, crit)
	}

	if err := rt.ServeDebug(nil); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`telemetry: (http://\S+)/metrics`).FindStringSubmatch(out.String())
	if m == nil || !strings.Contains(out.String(), "memory budget: 1073.7 MB (warn 75%, critical 90%)") {
		t.Fatalf("log:\n%s", out.String())
	}
	for _, path := range []string{"/metrics", "/debug/mem", "/debug/flight", "/debug/trace"} {
		resp, err := http.Get(m[1] + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", path, resp.Status)
		}
	}

	rt.Close()
	asFound("after Close")
	if conn, err := net.Dial("tcp", strings.TrimPrefix(m[1], "http://")); err == nil {
		conn.Close()
		t.Error("debug listener still accepts after Close")
	}
	rt.Close() // a second Close has nothing left to undo

	for _, bad := range []Config{
		{Backend: "nope", FlightSize: 8, MemBudget: "1GiB"},
		{Backend: "int8", FlightSize: 8, MemBudget: "garbage"},
	} {
		if _, err := bad.Start(io.Discard, false); err == nil {
			t.Errorf("Start accepted %+v", bad)
		}
		asFound("after a refused Start")
	}

	// Without -trace-sample's consumer, -mem-budget or -telemetry-addr
	// there is no tracer, no budget and no listener.
	rt, err = Config{Backend: "generic"}.Start(&out, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if b, _, _ := ledger.Budget(); rt.Tracer != nil || b != 0 || rt.ServeDebug(nil) != nil {
		t.Errorf("a bare Config started a tracer, a budget or failed to skip the listener")
	}
}
