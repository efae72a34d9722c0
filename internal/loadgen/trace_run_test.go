package loadgen

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/serve"
	"pac/internal/telemetry"
)

func synthTiny(seed int64) *Trace {
	return Synthesize(SynthConfig{
		Seed: seed, Users: 4, QPS: 300, Duration: 200 * time.Millisecond,
		GenFrac: 0, SeqLen: 8, Vocab: 32,
	})
}

func tinyServer(tr *telemetry.Tracer) *serve.Server {
	mcfg := model.Tiny()
	mcfg.Vocab = 32
	mcfg.NumClasses = 32
	srv := serve.NewServer(peft.NewParallel(model.New(mcfg), peft.Options{Reduction: 2}), mcfg)
	if tr != nil {
		srv.SetTracer(tr, telemetry.PidServe+1, "replica-0")
	}
	return srv
}

// TestTailSamplerNamesP99Exemplars runs with head sampling fully off
// and asserts the tail sampler still force-records the slowest
// requests' client spans and stamps their trace IDs as the report's
// p99 exemplars.
func TestTailSamplerNamesP99Exemplars(t *testing.T) {
	tr := synthTiny(11)
	tracer := telemetry.NewTracer()
	rep, err := Run(context.Background(), tr, &fakeTarget{}, RunOptions{
		Speedup: 8, Tracer: tracer, TraceSample: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	op := rep.Op(string(OpClassify))
	if op == nil || len(op.Exemplars) == 0 {
		t.Fatal("traced run produced no tail exemplars")
	}
	if len(op.Exemplars) > 8 {
		t.Fatalf("default tail cap exceeded: %d", len(op.Exemplars))
	}
	for i := 1; i < len(op.Exemplars); i++ {
		if op.Exemplars[i].Seconds > op.Exemplars[i-1].Seconds {
			t.Fatal("exemplars not sorted slowest-first")
		}
	}
	if op.Latency.P99Exemplar == "" {
		t.Fatal("p99 exemplar missing from latency digest")
	}
	inTail := map[string]float64{}
	for _, e := range op.Exemplars {
		inTail[e.Trace] = e.Seconds
	}
	if _, ok := inTail[op.Latency.P99Exemplar]; !ok {
		t.Fatalf("p99 exemplar %s is not a tail trace", op.Latency.P99Exemplar)
	}
	// Every exemplar resolves to a force-recorded client span in the dump.
	spans := map[string]bool{}
	for _, ev := range tracer.Events() {
		if ev.Ph == "X" && ev.Args != nil && ev.Pid == telemetry.PidClient {
			if tid, _ := ev.Args["trace"].(string); tid != "" {
				spans[tid] = true
			}
		}
	}
	for trace := range inTail {
		if !spans[trace] {
			t.Fatalf("exemplar trace %s has no client span in the dump", trace)
		}
	}
	if len(spans) != len(inTail) {
		t.Fatalf("head sampling off: %d client spans for %d tail traces", len(spans), len(inTail))
	}
}

// TestTracePropagatesOverHTTP replays a trace through HTTPTarget against
// a traced pac-serve handler at 100% sampling and asserts each server-
// side op span parents to the loadgen client span carried over the
// X-Pac-Trace header.
func TestTracePropagatesOverHTTP(t *testing.T) {
	tr := synthTiny(13)
	tracer := telemetry.NewTracer()
	srv := tinyServer(tracer)
	hs := httptest.NewServer(serve.HandlerFor(srv))
	defer hs.Close()

	rep, err := Run(context.Background(), tr, HTTPTarget{Base: hs.URL}, RunOptions{
		Speedup: 8, Tracer: tracer, TraceSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	op := rep.Op(string(OpClassify))
	if op == nil || op.OK != op.Issued || op.Issued == 0 {
		t.Fatalf("HTTP replay failed: %+v", op)
	}

	clientSpans := map[string]string{} // span id → trace id
	var serverSpans []telemetry.ChromeEvent
	for _, ev := range tracer.Events() {
		if ev.Ph != "X" || ev.Args == nil {
			continue
		}
		switch {
		case ev.Pid == telemetry.PidClient:
			clientSpans[ev.Args["span"].(string)] = ev.Args["trace"].(string)
		case ev.Pid == telemetry.PidServe+1 && ev.Name == "classify":
			serverSpans = append(serverSpans, ev)
		}
	}
	if int64(len(clientSpans)) != op.Issued {
		t.Fatalf("%d client spans for %d requests at 100%% sampling", len(clientSpans), op.Issued)
	}
	if int64(len(serverSpans)) != op.Issued {
		t.Fatalf("%d server op spans for %d requests", len(serverSpans), op.Issued)
	}
	for _, ev := range serverSpans {
		parent, _ := ev.Args["parent"].(string)
		trace, ok := clientSpans[parent]
		if !ok {
			t.Fatalf("server span parent %q is not a client span", parent)
		}
		if trace != ev.Args["trace"] {
			t.Fatalf("server span trace %v != client trace %v", ev.Args["trace"], trace)
		}
	}
}

// TestUntracedRunUnchanged pins the default path: no tracer means no
// exemplars anywhere in the report.
func TestUntracedRunUnchanged(t *testing.T) {
	tr := synthTiny(17)
	rep, err := Run(context.Background(), tr, &fakeTarget{}, RunOptions{Speedup: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range rep.Ops {
		if len(op.Exemplars) != 0 || op.Latency.P99Exemplar != "" {
			t.Fatalf("untraced run grew exemplars: %+v", op)
		}
	}
}
