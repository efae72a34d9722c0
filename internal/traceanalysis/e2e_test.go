package traceanalysis_test

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"pac/internal/loadgen"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/serve"
	"pac/internal/telemetry"
	"pac/internal/traceanalysis"
)

// TestP99CriticalPathAcrossHTTPAndDevices is the acceptance path for
// the tracing tentpole: pac-loadgen replays a trace over real HTTP
// against one server, the report's p99 exemplar resolves to a span tree
// that crosses the HTTP boundary from the client's device onto the
// server's, and the critical path sums to the measured request latency
// within ±5%.
func TestP99CriticalPathAcrossHTTPAndDevices(t *testing.T) {
	tracer := telemetry.NewTracer()
	cfg := model.Tiny()
	cfg.Vocab = 32
	cfg.NumClasses = 32
	srv := serve.NewServer(peft.NewParallel(model.New(cfg), peft.Options{Reduction: 2}), cfg)
	srv.SetTracer(tracer, telemetry.PidServe, "pac-serve")
	hs := httptest.NewServer(serve.HandlerFor(srv))
	defer hs.Close()

	trace := loadgen.Synthesize(loadgen.SynthConfig{
		Seed: 23, Users: 6, QPS: 300, Duration: 300 * time.Millisecond,
		GenFrac: 0, SeqLen: 8, Vocab: 32,
	})
	rep, err := loadgen.Run(context.Background(), trace, loadgen.HTTPTarget{Base: hs.URL},
		loadgen.RunOptions{Speedup: 8, Tracer: tracer, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	op := rep.Op(string(loadgen.OpClassify))
	if op == nil || op.OK == 0 {
		t.Fatalf("replay failed: %+v", op)
	}
	if op.Latency.P99Exemplar == "" {
		t.Fatal("report names no p99 exemplar")
	}

	evs, err := traceanalysis.Parse(mustJSON(t, tracer))
	if err != nil {
		t.Fatal(err)
	}
	if errs := traceanalysis.Check(evs); len(errs) != 0 {
		t.Fatalf("schema check: %v", errs)
	}
	dump := traceanalysis.Build(evs)

	id, ok := traceanalysis.ParseHexID(op.Latency.P99Exemplar)
	if !ok {
		t.Fatalf("bad exemplar id %q", op.Latency.P99Exemplar)
	}
	tree := dump.Tree(id)
	if tree == nil {
		t.Fatalf("p99 exemplar %s has no tree in the dump", op.Latency.P99Exemplar)
	}
	tr := dump.AnalyzeTree(tree)

	// The tree roots at the loadgen client span and crosses HTTP into the
	// server's pid: 2 simulated devices in one tree.
	if tr.Root != string(loadgen.OpClassify) {
		t.Fatalf("tree root %q, want the client op span", tr.Root)
	}
	if tree.Root().Pid != telemetry.PidClient {
		t.Fatalf("root pid %d, want client %d", tree.Root().Pid, telemetry.PidClient)
	}
	if tr.Devices < 2 {
		t.Fatalf("tree spans %d device(s), want client+server", tr.Devices)
	}
	var sawCompute bool
	for _, seg := range tr.Path {
		if seg.Cat == "compute" {
			sawCompute = true
		}
	}
	if !sawCompute {
		t.Fatalf("critical path has no compute stage: %+v", tr.Path)
	}

	// Critical path tiles the client span, which IS the measured
	// latency: sums must agree within the acceptance tolerance of 5%.
	if tr.DurUS <= 0 || math.Abs(tr.PathSumUS-tr.DurUS) > 0.05*tr.DurUS {
		t.Fatalf("critical path sums to %.1fµs, root (measured latency) is %.1fµs", tr.PathSumUS, tr.DurUS)
	}

	// Every traced request produced a full tree; spot-check the whole
	// dump rather than only the exemplar.
	if int64(len(dump.Trees)) != op.Issued {
		t.Fatalf("%d trees for %d requests at 100%% sampling", len(dump.Trees), op.Issued)
	}
}

func mustJSON(t *testing.T, tr *telemetry.Tracer) []byte {
	t.Helper()
	blob, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
