package loadgen

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"pac/internal/generate"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/serve"
)

// fakeTarget answers instantly or after a fixed delay, counting calls.
type fakeTarget struct {
	delay time.Duration
	calls atomic.Int64
}

func (f *fakeTarget) ClassifyFor(ctx context.Context, user int, enc [][]int, lens []int) ([]int, error) {
	f.calls.Add(1)
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return make([]int, len(enc)), ctx.Err()
}

func (f *fakeTarget) GenerateFor(ctx context.Context, user int, enc [][]int, lens []int, opts generate.Options) ([][]int, error) {
	f.calls.Add(1)
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return make([][]int, len(enc)), ctx.Err()
}

func TestOpenLoopArrivalsIndependentOfServerLatency(t *testing.T) {
	cfg := SynthConfig{Seed: 9, Users: 10, QPS: 200, Duration: 500 * time.Millisecond, GenFrac: 0}
	tr := Synthesize(cfg)
	if len(tr.Requests) < 50 {
		t.Fatalf("trace too small: %d", len(tr.Requests))
	}
	// A target that takes 25ms per request: a closed loop over ~100
	// requests would need ~2.5s to *issue* them; an open loop finishes
	// issuing on the trace's own schedule (~0.5s) regardless.
	slow := &fakeTarget{delay: 25 * time.Millisecond}
	rep, err := Run(context.Background(), tr, slow, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	span := tr.Span().Seconds()
	if rep.IssueWallSeconds > span+0.5 {
		t.Fatalf("issue wall %.2fs not tracking trace span %.2fs: issuing is latency-coupled",
			rep.IssueWallSeconds, span)
	}
	if rep.Requests != int64(len(tr.Requests)) {
		t.Fatalf("issued %d of %d", rep.Requests, len(tr.Requests))
	}
	if slow.calls.Load() != int64(len(tr.Requests)) {
		t.Fatalf("target saw %d calls", slow.calls.Load())
	}
}

func TestRunSpeedupCompressesTimeline(t *testing.T) {
	cfg := SynthConfig{Seed: 4, Users: 5, QPS: 100, Duration: 2 * time.Second, GenFrac: 0}
	tr := Synthesize(cfg)
	fast := &fakeTarget{}
	t0 := time.Now()
	rep, err := Run(context.Background(), tr, fast, RunOptions{Speedup: 20})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed > time.Second {
		t.Fatalf("20x replay of a 2s trace took %v", elapsed)
	}
	if rep.Requests != int64(len(tr.Requests)) {
		t.Fatalf("issued %d of %d", rep.Requests, len(tr.Requests))
	}
}

func TestRunCancellationStopsIssuing(t *testing.T) {
	cfg := SynthConfig{Seed: 2, Users: 5, QPS: 50, Duration: 30 * time.Second, GenFrac: 0}
	tr := Synthesize(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	rep, err := Run(ctx, tr, &fakeTarget{}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests >= int64(len(tr.Requests)) {
		t.Fatalf("cancellation did not stop issuing: %d", rep.Requests)
	}
	if rep.WallSeconds > 5 {
		t.Fatalf("run kept going after cancel: %.2fs", rep.WallSeconds)
	}
}

func TestEndToEndReplayAgainstServer(t *testing.T) {
	// A small mixed trace against a real in-process serve.Server.
	cfg := SynthConfig{
		Seed: 21, Users: 8, Zipf: 1.0, QPS: 400, GenFrac: 0.25,
		Duration: 300 * time.Millisecond, SeqLen: 8, Vocab: 32, MaxLen: 3,
	}
	tr := Synthesize(cfg)
	if !tr.HasOp(OpGenerate) || !tr.HasOp(OpClassify) {
		t.Fatalf("trace not mixed: %d requests", len(tr.Requests))
	}

	mcfg := model.Tiny()
	mcfg.Vocab = cfg.Vocab
	mcfg.NumClasses = cfg.Vocab
	mcfg.LM = true
	mcfg.MaxSeq = 64
	srv := serve.NewServer(peft.NewParallel(model.New(mcfg), peft.Options{Reduction: 2}), mcfg)

	rep, err := Run(context.Background(), tr, srv, RunOptions{Speedup: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Request accounting: everything issued, everything answered.
	if rep.Requests != int64(len(tr.Requests)) {
		t.Fatalf("issued %d of %d", rep.Requests, len(tr.Requests))
	}
	var sumIssued, sumOK int64
	perOp := map[string]int64{}
	for _, r := range tr.Requests {
		perOp[string(r.Op)]++
	}
	for _, op := range rep.Ops {
		sumIssued += op.Issued
		sumOK += op.OK
		if op.Issued != perOp[op.Op] {
			t.Fatalf("op %s issued %d, trace has %d", op.Op, op.Issued, perOp[op.Op])
		}
		if op.Errors != 0 || op.Canceled != 0 {
			t.Fatalf("op %s: errors %d canceled %d", op.Op, op.Errors, op.Canceled)
		}
		if op.Latency.Count != op.OK {
			t.Fatalf("op %s: %d latency samples for %d completions", op.Op, op.Latency.Count, op.OK)
		}
		// Percentiles must be ordered in every summary.
		if !(op.Latency.P50 <= op.Latency.P95 && op.Latency.P95 <= op.Latency.P99) {
			t.Fatalf("op %s percentiles out of order: %+v", op.Op, op.Latency)
		}
		if op.Latency.P50 <= 0 {
			t.Fatalf("op %s p50 not positive: %+v", op.Op, op.Latency)
		}
		if op.ThroughputRPS <= 0 {
			t.Fatalf("op %s throughput %v", op.Op, op.ThroughputRPS)
		}
	}
	if sumIssued != rep.Requests || sumOK != rep.Requests {
		t.Fatalf("per-op breakdown inconsistent: issued %d ok %d want %d", sumIssued, sumOK, rep.Requests)
	}
	if srv.Served() != rep.Requests {
		t.Fatalf("server served %d, report says %d", srv.Served(), rep.Requests)
	}

	// Per-user attribution flowed through: the server saw the trace's
	// user population.
	if srv.Users() != tr.DistinctUsers() {
		t.Fatalf("server attributed %d users, trace has %d", srv.Users(), tr.DistinctUsers())
	}
	if rep.Users != tr.DistinctUsers() {
		t.Fatalf("report users %d, trace %d", rep.Users, tr.DistinctUsers())
	}
}
