package parallel

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/telemetry"
	"pac/internal/train"
)

// scaffoldEngine is one row of TestStepScaffold: an engine plus the
// three handles the table needs on it.
type scaffoldEngine struct {
	stepper
	setTimeout func(time.Duration)
	// wrap rewires every fabric of the engine; rank 1 of the first fabric
	// it is handed is the one the crash case kills.
	wrap func(func(first bool, eps []Transport) []Transport)
	// params flattens the trainable parameters of every replica.
	params func() []float32
}

func newScaffoldEngine(name string, tr *telemetry.Tracer) scaffoldEngine {
	switch name {
	case "dp":
		g := NewDPGroup(2, func(int) (peft.Technique, train.Optimizer) {
			tech := peft.New(peft.ParallelAdapters, model.New(model.Tiny()), peft.Options{Reduction: 4})
			return tech, train.NewSGD(tech.Trainable(), lr, 0, 0)
		})
		g.Trace, g.TracePID = tr, telemetry.PidDP
		return scaffoldEngine{g, func(d time.Duration) { g.StepTimeout = d },
			func(w func(bool, []Transport) []Transport) { g.Endpoints = w(true, g.Endpoints) },
			func() (out []float32) {
				for _, tech := range g.Techs {
					out = append(out, nn.FlattenParams(tech.Trainable())...)
				}
				return out
			}}
	case "hybrid":
		h := tracedHybrid(tr, 2, 2, 2)
		return scaffoldEngine{h, func(d time.Duration) { h.StepTimeout = d },
			func(w func(bool, []Transport) []Transport) {
				h.WrapTransports(func(id FabricID, eps []Transport) []Transport {
					return w(id == FabricID{Kind: "pipe", Index: 0}, eps)
				})
			},
			func() (out []float32) {
				for _, lane := range h.Lanes {
					out = append(out, nn.FlattenParams(lane.AllStageParams())...)
				}
				return out
			}}
	default:
		e := pipelineFor(peft.ParallelAdapters, 2, 2)
		e.Trace = tr
		return scaffoldEngine{e, func(d time.Duration) { e.StepTimeout = d },
			func(w func(bool, []Transport) []Transport) { e.Endpoints = w(true, e.Endpoints) },
			func() []float32 { return nn.FlattenParams(e.AllStageParams()) }}
	}
}

// TestStepScaffold checks, engine by engine, what step.run and fanOut
// promise every StepCtx.
func TestStepScaffold(t *testing.T) {
	b := makeBatch(8)
	for _, name := range []string{"dp", "hybrid", "pp"} {
		// A rank that is dead before its first transport operation: the
		// step names it within StepTimeout, every goroutine is gone, and —
		// no collective having completed anywhere — no optimizer stepped.
		t.Run(name+"/crashed-rank", func(t *testing.T) {
			e := newScaffoldEngine(name, nil)
			const timeout = 2 * time.Second
			e.setTimeout(timeout)
			e.wrap(func(first bool, eps []Transport) []Transport {
				fc := FaultConfig{Seed: 3}
				if first {
					fc.Crash = map[int]int{1: 0}
				}
				return WrapFaulty(eps, fc)
			})
			before := e.params()
			base := runtime.NumGoroutine()
			start := time.Now()
			_, err := e.StepCtx(context.Background(), b)
			if elapsed := time.Since(start); elapsed > timeout+time.Second {
				t.Fatalf("step took %v with StepTimeout %v", elapsed, timeout)
			}
			if rf, ok := AsRankFailed(err); !ok || rf.Rank != 1 {
				t.Fatalf("want RankFailedError{Rank: 1}, got %v", err)
			}
			assertNoGoroutineLeak(t, base)
			if after := e.params(); !reflect.DeepEqual(before, after) {
				t.Fatal("a failed step changed parameters")
			}
		})

		// The caller giving up is not a peer dying. The partition makes
		// every receive wait, so the cancellation is what ends the step.
		t.Run(name+"/cancelled", func(t *testing.T) {
			e := newScaffoldEngine(name, nil)
			e.wrap(func(_ bool, eps []Transport) []Transport {
				return WrapFaulty(eps, FaultConfig{Seed: 3, Partition: [][]int{{0}, {1}}})
			})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			base := runtime.NumGoroutine()
			_, err := e.StepCtx(ctx, b)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			if _, ok := AsRankFailed(err); ok {
				t.Fatalf("cancellation reported as a rank failure: %v", err)
			}
			assertNoGoroutineLeak(t, base)
		})

		// A step with a tracer always has a root, and every compute span
		// below it — DP ranks, pipeline F/B micro-batches — is in its trace.
		t.Run(name+"/traced", func(t *testing.T) {
			tr := telemetry.NewTracer()
			e := newScaffoldEngine(name, tr)
			mustStep(t, e, b)
			var root string
			computes := 0
			for _, ev := range tr.Events() {
				if ev.Ph == "X" && ev.Cat == "step" && ev.Args["parent"] == nil {
					if root != "" {
						t.Fatal("step has two root spans")
					}
					root, _ = ev.Args["trace"].(string)
				}
			}
			if root == "" {
				t.Fatal("step recorded no root span")
			}
			for _, ev := range tr.Events() {
				if ev.Ph != "X" || ev.Cat != "compute" {
					continue
				}
				computes++
				if ev.Args["trace"] != root {
					t.Fatalf("compute span %q in trace %v, step root is %s", ev.Name, ev.Args["trace"], root)
				}
			}
			if computes == 0 {
				t.Fatal("step recorded no compute span")
			}
		})
	}
}

// TestHybridLaneWithoutShard: a trailing batch smaller than the lane
// count leaves a lane with nothing to compute. It joins the collectives
// with zero gradients, so the step is exactly the 1-lane step.
func TestHybridLaneWithoutShard(t *testing.T) {
	build := func(lanes int) *HybridEngine {
		return NewHybrid(lanes, 2, 2, lr, func(int) *PipelineEngine {
			return pipelineFor(peft.ParallelAdapters, 2, 2)
		})
	}
	b := makeBatch(1)
	two, one := build(2), build(1)
	loss := mustStep(t, two, b)
	if want := mustStep(t, one, b); loss != want {
		t.Fatalf("loss %v on two lanes, %v on one", loss, want)
	}
	if !two.InSync() {
		t.Fatal("lanes diverged")
	}
	got := nn.FlattenParams(two.Lanes[1].AllStageParams())
	if !reflect.DeepEqual(got, nn.FlattenParams(one.Lanes[0].AllStageParams())) {
		t.Fatal("the shardless lane's weights differ from the 1-lane engine's")
	}
}

// TestSurface pins the transport interface and the engines' exported
// methods, as TestFlagSurface pins the commands' flags: a second door
// to an operation (a Step beside StepCtx, a Send beside SendCtx) is an
// edit to these lists, and so a reviewed one.
func TestSurface(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf((*Transport)(nil)).Elem(), []string{"Rank", "RecvCtx", "SendCtx", "Size"}},
		{reflect.TypeOf(&DPGroup{}), []string{"InSync", "Size", "StepCtx", "TrainEpochFromCtx"}},
		{reflect.TypeOf(&HybridEngine{}), []string{"InSync", "StepCtx", "TrainEpochFromCtx", "WrapTransports"}},
		{reflect.TypeOf(&PipelineEngine{}), []string{"AllStageParams", "StageParams", "Stages", "StepCtx"}},
	} {
		var got []string
		for i := 0; i < c.typ.NumMethod(); i++ {
			got = append(got, c.typ.Method(i).Name)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v has methods %v, the pinned surface is %v", c.typ, got, c.want)
		}
	}
}
