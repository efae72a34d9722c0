package parallel

import (
	"context"
	"testing"
	"time"

	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/telemetry"
	"pac/internal/train"
)

// spanTree indexes a trace dump for structural assertions.
type spanTree struct {
	byID    map[string]telemetry.ChromeEvent // span id → event
	parents map[string]string                // span id → parent span id ("" = root)
	traces  map[string][]string              // trace id → span ids
}

func buildSpanTree(t *testing.T, evs []telemetry.ChromeEvent) *spanTree {
	t.Helper()
	st := &spanTree{byID: map[string]telemetry.ChromeEvent{}, parents: map[string]string{}, traces: map[string][]string{}}
	for _, ev := range evs {
		if ev.Ph != "X" || ev.Args == nil {
			continue
		}
		tid, _ := ev.Args["trace"].(string)
		sid, _ := ev.Args["span"].(string)
		if tid == "" || sid == "" {
			continue
		}
		if _, dup := st.byID[sid]; dup {
			t.Fatalf("span id %s recorded twice (%q and %q)", sid, st.byID[sid].Name, ev.Name)
		}
		st.byID[sid] = ev
		pid, _ := ev.Args["parent"].(string)
		st.parents[sid] = pid
		st.traces[tid] = append(st.traces[tid], sid)
	}
	return st
}

// checkIntegrity asserts every non-root span's parent exists in the
// same trace — the tree is connected and acyclic by construction of
// fresh span IDs.
func (st *spanTree) checkIntegrity(t *testing.T) {
	t.Helper()
	for sid, pid := range st.parents {
		if pid == "" {
			continue
		}
		pev, ok := st.byID[pid]
		if !ok {
			ev := st.byID[sid]
			t.Fatalf("span %s (%s) orphaned: parent %s not in dump", sid, ev.Name, pid)
		}
		if pev.Args["trace"] != st.byID[sid].Args["trace"] {
			t.Fatalf("span %s crosses traces: parent %s", sid, pid)
		}
	}
}

func tracedHybrid(tr *telemetry.Tracer, lanes, stages, micro int) *HybridEngine {
	h := NewHybrid(lanes, stages, micro, lr, func(lane int) *PipelineEngine {
		e := pipelineFor(peft.ParallelAdapters, stages, micro)
		e.Trace = tr
		e.TracePID = lane
		return e
	})
	h.Trace = tr
	return h
}

// TestHybridStepTraceTree runs one traced hybrid step and asserts the
// span dump forms a single causal tree: the step root on PidOrch, one
// child chain of F spans per microbatch crossing every stage on every
// lane, folding back through B spans.
func TestHybridStepTraceTree(t *testing.T) {
	const lanes, stages, micro = 2, 2, 2
	tr := telemetry.NewTracer()
	h := tracedHybrid(tr, lanes, stages, micro)
	if _, err := h.StepCtx(context.Background(), makeBatch(8)); err != nil {
		t.Fatal(err)
	}

	st := buildSpanTree(t, tr.Events())
	if len(st.traces) != 1 {
		t.Fatalf("one step must yield one trace, got %d", len(st.traces))
	}
	st.checkIntegrity(t)

	var roots, fspans, bspans, steps int
	for sid, pid := range st.parents {
		ev := st.byID[sid]
		if pid == "" {
			roots++
			if ev.Name != "step" || ev.Pid != telemetry.PidOrch {
				t.Fatalf("unexpected root span %q pid %d", ev.Name, ev.Pid)
			}
		}
		switch {
		case ev.Name == "step":
			steps++
		case ev.Name[0] == 'F':
			fspans++
		case ev.Name[0] == 'B':
			bspans++
		}
	}
	if roots != 1 {
		t.Fatalf("got %d roots, want 1", roots)
	}
	if want := lanes * stages * micro; fspans != want || bspans != want {
		t.Fatalf("got %d F / %d B spans, want %d each", fspans, bspans, want)
	}

	// A microbatch's F chain must cross pids (devices): stage 1's F span
	// parents back to stage 0's F span on the same lane pid.
	crossed := false
	for sid, pid := range st.parents {
		if pid == "" {
			continue
		}
		ev, pev := st.byID[sid], st.byID[pid]
		if ev.Name[0] == 'F' && pev.Name[0] == 'F' && ev.Tid != pev.Tid {
			crossed = true
			if ev.Tid != pev.Tid+1 {
				t.Fatalf("F chain skipped a stage: %d ← %d", ev.Tid, pev.Tid)
			}
		}
	}
	if !crossed {
		t.Fatal("no F span chained across a stage boundary")
	}

	// The last stage's B parents to its own F (the turnaround), and
	// upstream B spans parent to downstream B spans.
	turnaround := false
	for sid, pid := range st.parents {
		if pid == "" {
			continue
		}
		ev, pev := st.byID[sid], st.byID[pid]
		if ev.Name[0] == 'B' && pev.Name[0] == 'F' && ev.Tid == stages-1 && pev.Tid == stages-1 {
			turnaround = true
		}
	}
	if !turnaround {
		t.Fatal("last-stage B span did not parent to its forward span")
	}
}

// TestTracePropagationSurvivesFaultyTransport injects seeded drops and
// duplicates under the pipeline fabric and asserts span trees stay
// intact: duplicate delivery must not double-record or orphan spans,
// and every step still forms exactly one connected tree.
func TestTracePropagationSurvivesFaultyTransport(t *testing.T) {
	const lanes, stages, micro, steps = 1, 3, 2, 4
	tr := telemetry.NewTracer()
	h := tracedHybrid(tr, lanes, stages, micro)
	h.StepTimeout = 10 * time.Second
	h.WrapTransports(func(id FabricID, eps []Transport) []Transport {
		if id.Kind != "pipe" {
			return eps
		}
		return WrapFaulty(eps, FaultConfig{Seed: 7, Drop: 0.15, Duplicate: 0.25})
	})

	b := makeBatch(8)
	for i := 0; i < steps; i++ {
		if _, err := h.StepCtx(context.Background(), b); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}

	st := buildSpanTree(t, tr.Events())
	if len(st.traces) != steps {
		t.Fatalf("got %d traces, want %d", len(st.traces), steps)
	}
	st.checkIntegrity(t)
	for traceID, sids := range st.traces {
		// Per step: 1 step root + per-stage F and B per microbatch.
		want := 1 + 2*stages*micro
		if len(sids) != want {
			t.Fatalf("trace %s holds %d spans, want %d (duplicates corrupted the tree?)", traceID, len(sids), want)
		}
	}
}

// TestUnsampledTraceRecordsNothing drives a traced step with sampling
// off: the decision must propagate across stages (no F/B spans) while
// the engines still run to completion.
func TestUnsampledTraceRecordsNothing(t *testing.T) {
	tr := telemetry.NewTracer()
	tr.SetSampleRate(0)
	h := tracedHybrid(tr, 1, 2, 2)
	if _, err := h.StepCtx(context.Background(), makeBatch(4)); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.Events() {
		if ev.Ph == "X" {
			t.Fatalf("unsampled step recorded span %q", ev.Name)
		}
	}
}

// TestDPStepTraceTree asserts cached-epoch DP steps root on PidOrch
// with one compute child per rank.
func TestDPStepTraceTree(t *testing.T) {
	tr := telemetry.NewTracer()
	g := NewDPGroup(2, func(rank int) (peft.Technique, train.Optimizer) {
		m := model.New(model.Tiny())
		tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
		return tech, train.NewSGD(tech.Trainable(), lr, 0, 0)
	})
	g.Trace = tr
	g.TracePID = telemetry.PidDP
	if _, err := g.StepCtx(context.Background(), makeBatch(8)); err != nil {
		t.Fatal(err)
	}
	st := buildSpanTree(t, tr.Events())
	if len(st.traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(st.traces))
	}
	st.checkIntegrity(t)
	children := 0
	for sid, pid := range st.parents {
		if pid != "" {
			if ev := st.byID[sid]; ev.Pid != telemetry.PidDP {
				t.Fatalf("rank span on pid %d, want %d", ev.Pid, telemetry.PidDP)
			}
			children++
		}
	}
	if children != 2 {
		t.Fatalf("got %d rank spans, want 2", children)
	}
}
