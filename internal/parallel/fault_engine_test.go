package parallel

import (
	"context"
	"runtime"
	"testing"
	"time"

	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/train"
)

// assertNoGoroutineLeak waits for the goroutine count to settle back to
// (roughly) the pre-test baseline, failing if aborted engine goroutines
// stayed behind.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d now vs %d at start", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// trainUntilFailure runs epochs until the engine surfaces an error,
// asserting it happens within the detection budget.
func trainUntilFailure(t *testing.T, budget time.Duration, epoch func(ep int) error) error {
	t.Helper()
	start := time.Now()
	for ep := 0; ep < 50; ep++ {
		if err := epoch(ep); err != nil {
			if elapsed := time.Since(start); elapsed > budget {
				t.Fatalf("failure detected only after %v (budget %v)", elapsed, budget)
			}
			return err
		}
	}
	t.Fatal("rank crash never surfaced as an error")
	return nil
}

func TestDPRankCrashMidEpoch(t *testing.T) {
	base := runtime.NumGoroutine()
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 16, SeqLen: 8, Vocab: 64, Seed: 21})
	g := NewDPGroup(2, func(rank int) (peft.Technique, train.Optimizer) {
		m := model.New(model.Tiny())
		tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
		return tech, train.NewSGD(tech.Trainable(), lr, 0, 0)
	})
	g.StepTimeout = time.Second
	g.Endpoints = WrapFaulty(g.Endpoints, FaultConfig{Seed: 3, Crash: map[int]int{1: 6}})

	loader := data.NewLoader(ds, 8, 1)
	err := trainUntilFailure(t, 10*time.Second, func(ep int) error {
		_, err := g.TrainEpochFromCtx(context.Background(), loader, ep, 0)
		return err
	})
	rf, ok := AsRankFailed(err)
	if !ok {
		t.Fatalf("want RankFailedError, got %v", err)
	}
	if rf.Rank != 1 {
		t.Fatalf("wrong rank blamed: %v", rf)
	}
	assertNoGoroutineLeak(t, base)
}

func TestPipelineRankCrashMidEpoch(t *testing.T) {
	base := runtime.NumGoroutine()
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 16, SeqLen: 8, Vocab: 64, Seed: 22})
	e := pipelineFor(peft.Full, 2, 2)
	e.StepTimeout = time.Second
	e.Endpoints = WrapFaulty(e.Endpoints, FaultConfig{Seed: 3, Crash: map[int]int{1: 6}})

	loader := data.NewLoader(ds, 8, 1)
	err := trainUntilFailure(t, 10*time.Second, func(ep int) error {
		for _, b := range loader.Epoch(ep) {
			if _, err := e.StepCtx(context.Background(), b); err != nil {
				return err
			}
		}
		return nil
	})
	if rf, ok := AsRankFailed(err); !ok || rf.Rank != 1 {
		t.Fatalf("want RankFailedError{Rank:1}, got %v", err)
	}
	assertNoGoroutineLeak(t, base)
}

func TestHybridRankCrashMidEpoch(t *testing.T) {
	base := runtime.NumGoroutine()
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 16, SeqLen: 8, Vocab: 64, Seed: 23})
	h := NewHybrid(2, 2, 2, lr, func(lane int) *PipelineEngine {
		m := model.New(model.Tiny())
		tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
		return NewPipeline(m, tech, 2, nil, 2, lr)
	})
	h.StepTimeout = time.Second
	// Crash stage 0 of lane 1 only — device index 1·2+0 = 2.
	h.WrapTransports(func(id FabricID, eps []Transport) []Transport {
		fc := FaultConfig{Seed: 3}
		if id.Kind == "pipe" && id.Index == 1 {
			fc.Crash = map[int]int{0: 6}
		}
		return WrapFaulty(eps, fc)
	})

	loader := data.NewLoader(ds, 8, 1)
	err := trainUntilFailure(t, 10*time.Second, func(ep int) error {
		_, err := h.TrainEpochFromCtx(context.Background(), loader, ep, 0)
		return err
	})
	rf, ok := AsRankFailed(err)
	if !ok {
		t.Fatalf("want RankFailedError, got %v", err)
	}
	if rf.Lane != 1 {
		t.Fatalf("failure not attributed to lane 1: %v", rf)
	}
	assertNoGoroutineLeak(t, base)
}

// delayOnly is a reordering-free fault schedule: latency spikes but no
// drops, duplicates, crashes, or partitions. It must not change
// numerics.
var delayOnly = FaultConfig{Seed: 5, Delay: 0.5, MaxDelay: 2 * time.Millisecond}

func TestDataParallelEquivalenceUnderDelayChan(t *testing.T) {
	b := makeBatch(8)
	want, _ := singleDeviceStep(t, peft.ParallelAdapters, b)
	g := NewDPGroup(2, func(rank int) (peft.Technique, train.Optimizer) {
		m := model.New(model.Tiny())
		tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
		return tech, train.NewSGD(tech.Trainable(), lr, 0, 0)
	})
	g.Endpoints = WrapFaulty(g.Endpoints, delayOnly)
	if _, err := g.StepCtx(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	paramsClose(t, nn.FlattenParams(g.Techs[0].Trainable()), want, 1e-4, "delay-only chan DP")
}

func TestPipelineEquivalenceUnderDelayChan(t *testing.T) {
	b := makeBatch(4)
	want, _ := singleDeviceStep(t, peft.Full, b)
	e := pipelineFor(peft.Full, 2, 2)
	e.Endpoints = WrapFaulty(e.Endpoints, delayOnly)
	if _, err := e.StepCtx(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	paramsClose(t, nn.FlattenParams(e.Tech.Trainable()), want, 2e-4, "delay-only chan pipeline")
}

// TestHybridEquivalenceUnderDelayChan: 2 lanes × 2 stages with every
// fabric — each lane's pipe and each stage's all-reduce ring — behind a
// delay-only decorator, whose frames copy the payload, still match one
// device.
func TestHybridEquivalenceUnderDelayChan(t *testing.T) {
	b := makeBatch(8)
	want, _ := singleDeviceStep(t, peft.ParallelAdapters, b)
	h := NewHybrid(2, 2, 2, lr, func(lane int) *PipelineEngine {
		m := model.New(model.Tiny())
		tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
		return NewPipeline(m, tech, 2, nil, 2, lr)
	})
	h.WrapTransports(func(_ FabricID, eps []Transport) []Transport {
		return WrapFaulty(eps, delayOnly)
	})
	if _, err := h.StepCtx(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if !h.InSync() {
		t.Fatal("lanes diverged")
	}
	paramsClose(t, nn.FlattenParams(h.Lanes[0].Tech.Trainable()), want, 2e-4, "delay-only chan hybrid")
}
