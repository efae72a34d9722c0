package fleet

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// simFleet is an in-memory fleet the executor tests actuate against:
// Apply mutates a map of device states the way a real actuator would, and
// counts applications per step ID so resume tests can prove steps were
// not repeated.
type simFleet struct {
	mu      sync.Mutex
	order   []string
	devices map[string]*DeviceState
	applied map[string]int
}

func newSimFleet(obs Observed) *simFleet {
	s := &simFleet{devices: map[string]*DeviceState{}, applied: map[string]int{}}
	for _, d := range obs.Devices {
		d := d
		s.order = append(s.order, d.Name)
		s.devices[d.Name] = &d
	}
	return s
}

func (s *simFleet) Observe() Observed {
	s.mu.Lock()
	defer s.mu.Unlock()
	var obs Observed
	for _, name := range s.order {
		obs.Devices = append(obs.Devices, *s.devices[name])
	}
	return obs
}

func (s *simFleet) Apply(_ context.Context, step Step) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied[step.ID]++
	d, ok := s.devices[step.Device]
	if !ok {
		return fmt.Errorf("no device %s", step.Device)
	}
	switch step.Kind {
	case StepDrain:
		d.Draining = true
		if step.Target == "quarantine" {
			d.Quarantined = true
		}
	case StepQuiesce, StepSnapshot:
		// nothing to do in the sim
	case StepSwap:
		d.AdapterVersion = step.Target
	case StepRejoin:
		d.Draining = false
		d.Quarantined = false
	case StepVerify:
		if step.Target != "" && step.Target != "quarantine" && step.Target != "remove" &&
			d.AdapterVersion != step.Target {
			return fmt.Errorf("verify: %s at %s, want %s", d.Name, d.AdapterVersion, step.Target)
		}
	}
	return nil
}

func (s *simFleet) appliedCount(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied[id]
}

func TestExecutorRunsPlanToConvergence(t *testing.T) {
	sim := newSimFleet(threeByTwo())
	goal := goalFor(sim.Observe(), "v2", 2)
	plan, err := Diff(goal, sim.Observe())
	if err != nil {
		t.Fatal(err)
	}
	exec, err := NewExecutor(ExecConfig{Actuator: sim, Observe: sim.Observe, Goal: goal,
		StepTimeout: time.Second, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := exec.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	for _, d := range sim.Observe().Devices {
		if !d.InService() || d.AdapterVersion != "v2" {
			t.Fatalf("device %s not converged: %+v", d.Name, d)
		}
	}
	again, _ := Diff(goal, sim.Observe())
	if !again.Empty() {
		t.Fatalf("converged fleet re-diffs to %d steps", len(again.Steps))
	}
	for _, s := range plan.Steps {
		if n := sim.appliedCount(s.ID); n != 1 {
			t.Fatalf("step %s applied %d times, want 1", s.ID, n)
		}
	}
}

func TestExecutorRetriesTransientFaults(t *testing.T) {
	sim := newSimFleet(threeByTwo())
	goal := goalFor(sim.Observe(), "v2", 2)
	plan, _ := Diff(goal, sim.Observe())

	// The first two attempts of every Swap fail; retries must absorb it.
	var mu sync.Mutex
	fails := map[string]int{}
	flaky := ActuatorFunc(func(ctx context.Context, step Step) error {
		if step.Kind == StepSwap {
			mu.Lock()
			fails[step.ID]++
			n := fails[step.ID]
			mu.Unlock()
			if n <= 2 {
				return fmt.Errorf("transient fault %d", n)
			}
		}
		return sim.Apply(ctx, step)
	})
	exec, _ := NewExecutor(ExecConfig{Actuator: flaky, Observe: sim.Observe, Goal: goal,
		Retries: 2, Backoff: time.Millisecond, StepTimeout: time.Second})
	if err := exec.Run(context.Background(), plan); err != nil {
		t.Fatalf("retries did not absorb transient faults: %v", err)
	}

	// With a tighter budget the same fault pattern surfaces as StepError.
	sim2 := newSimFleet(threeByTwo())
	plan2, _ := Diff(goal, sim2.Observe())
	alwaysBad := ActuatorFunc(func(ctx context.Context, step Step) error {
		if step.Kind == StepSwap {
			return errors.New("permanent fault")
		}
		return sim2.Apply(ctx, step)
	})
	exec2, _ := NewExecutor(ExecConfig{Actuator: alwaysBad, Observe: sim2.Observe, Goal: goal,
		Retries: 1, Backoff: time.Millisecond, StepTimeout: time.Second})
	err := exec2.Run(context.Background(), plan2)
	var serr *StepError
	if !errors.As(err, &serr) {
		t.Fatalf("want *StepError, got %v", err)
	}
	if serr.Attempts != 2 || serr.Step.Kind != StepSwap {
		t.Fatalf("step error wrong: %+v", serr)
	}
}

func TestExecutorJournalResumeSkipsCompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "resume.pacj")
	sim := newSimFleet(threeByTwo())
	goal := goalFor(sim.Observe(), "v2", 2)
	plan, _ := Diff(goal, sim.Observe())

	// First run: cancel the executor after 5 done transitions — the
	// orchestrator "crashes" but the fleet (sim) keeps its state.
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, crash := context.WithCancel(context.Background())
	var doneBeforeCrash []string
	var mu sync.Mutex
	exec1, _ := NewExecutor(ExecConfig{Actuator: sim, Observe: sim.Observe, Goal: goal,
		Journal: j1, Backoff: time.Millisecond, StepTimeout: time.Second,
		OnTransition: func(step Step, trans string, attempt int, err error) {
			if trans != TransDone {
				return
			}
			mu.Lock()
			doneBeforeCrash = append(doneBeforeCrash, step.ID)
			if len(doneBeforeCrash) == 5 {
				crash()
			}
			mu.Unlock()
		}})
	if err := exec1.Run(ctx1, plan); !errors.Is(err, context.Canceled) {
		t.Fatalf("crashed run returned %v, want context.Canceled", err)
	}
	j1.Close()
	if len(doneBeforeCrash) < 5 {
		t.Fatalf("only %d steps done before crash", len(doneBeforeCrash))
	}

	// Second run: a fresh executor on the same journal resumes and
	// finishes. Completed steps are skipped, not re-applied.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	exec2, _ := NewExecutor(ExecConfig{Actuator: sim, Observe: sim.Observe, Goal: goal,
		Journal: j2, Backoff: time.Millisecond, StepTimeout: time.Second})
	if err := exec2.Run(context.Background(), plan); err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	for _, id := range doneBeforeCrash[:5] {
		if n := sim.appliedCount(id); n != 1 {
			t.Fatalf("completed step %s re-applied on resume (%d applications)", id, n)
		}
	}
	for _, d := range sim.Observe().Devices {
		if !d.InService() || d.AdapterVersion != "v2" {
			t.Fatalf("device %s not converged after resume: %+v", d.Name, d)
		}
	}

	// The journal proves the skips and records the completion.
	recs, torn, err := ReadJournal(path)
	if err != nil || torn {
		t.Fatalf("journal unreadable: torn=%v err=%v", torn, err)
	}
	skips, planDone := 0, false
	for _, r := range recs {
		if r.Kind == "step" && r.Transition == TransSkip {
			skips++
		}
		if r.Kind == "plan-done" && r.Fingerprint == plan.Fingerprint {
			planDone = true
		}
	}
	if skips < 5 {
		t.Fatalf("journal shows %d skips, want >= 5", skips)
	}
	if !planDone {
		t.Fatal("journal missing plan-done")
	}

	// A third run is a no-op: the plan-done marker short-circuits.
	j3, _ := OpenJournal(path)
	defer j3.Close()
	exec3, _ := NewExecutor(ExecConfig{Actuator: sim, Observe: sim.Observe, Goal: goal,
		Journal: j3, Backoff: time.Millisecond, StepTimeout: time.Second})
	before := sim.appliedCount(plan.Steps[0].ID)
	if err := exec3.Run(context.Background(), plan); err != nil {
		t.Fatal(err)
	}
	if sim.appliedCount(plan.Steps[0].ID) != before {
		t.Fatal("completed plan re-executed steps")
	}
}

// TestExecutorPersistentJournalRollForwardBackForward is the
// regression test for resume-credit aliasing: with one persistent
// journal (the pac-serve -fleet-journal deployment shape), roll
// v1→v2, back to v1, then to v2 again. The second v2 plan has the
// same fingerprint as the first — fingerprints hash the step sequence
// — and before the latest-header scoping it inherited the first run's
// plan-done marker: Run returned nil without executing and Reconcile
// failed "goal not reached" until the journal file was deleted.
func TestExecutorPersistentJournalRollForwardBackForward(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persistent.pacj")
	sim := newSimFleet(threeByTwo())

	roll := func(version string) error {
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		goal := goalFor(sim.Observe(), version, 2)
		return Reconcile(context.Background(), goal,
			ExecConfig{Actuator: sim, Observe: sim.Observe, Goal: goal,
				Journal: j, Backoff: time.Millisecond, StepTimeout: time.Second}, 3)
	}

	for i, version := range []string{"v2", "v1", "v2"} {
		if err := roll(version); err != nil {
			t.Fatalf("roll %d to %s: %v", i+1, version, err)
		}
		for _, d := range sim.Observe().Devices {
			if !d.InService() || d.AdapterVersion != version {
				t.Fatalf("roll %d: device %s at %+v, want %s in service", i+1, d.Name, d, version)
			}
		}
	}

	// The second v2 rollout really executed: every swap-to-v2 step
	// applied exactly twice (once per v2 rollout), never skipped off
	// the first run's stale credit.
	for _, d := range threeByTwo().Devices {
		id := stepID(StepSwap, d.Name, "v2")
		if n := sim.appliedCount(id); n != 2 {
			t.Fatalf("%s applied %d times across two v2 rollouts, want 2", id, n)
		}
	}
}

func TestExecutorAbortsOnInvariantViolation(t *testing.T) {
	// Two in-service devices with a floor of two: any drain breaches it.
	obs := Observed{Devices: []DeviceState{
		{Name: "a", Group: 0, Alive: true, AdapterVersion: "v1"},
		{Name: "b", Group: 0, Alive: true, AdapterVersion: "v1"},
	}}
	sim := newSimFleet(obs)
	goal := GoalSpec{Devices: []string{"a", "b"},
		Groups: []GroupGoal{{Group: 0, AdapterVersion: "v2", MinReplicas: 2}}}
	plan, err := Diff(goal, sim.Observe())
	if err != nil {
		t.Fatal(err)
	}
	exec, _ := NewExecutor(ExecConfig{Actuator: sim, Observe: sim.Observe, Goal: goal,
		Backoff: time.Millisecond, StepTimeout: time.Second})
	err = exec.Run(context.Background(), plan)
	v, ok := AsInvariantViolation(err)
	if !ok || v.Invariant != InvMinReplicas {
		t.Fatalf("want min-replicas violation, got %v", err)
	}
	// Forward-only: nothing was applied, nothing rolled back.
	for id, n := range sim.applied {
		if n != 0 {
			t.Fatalf("step %s applied despite refused wave", id)
		}
	}
}

func TestReconcileConverges(t *testing.T) {
	sim := newSimFleet(threeByTwo())
	goal := goalFor(sim.Observe(), "v3", 2)
	cfg := ExecConfig{Actuator: sim, Observe: sim.Observe, Goal: goal,
		Backoff: time.Millisecond, StepTimeout: time.Second}
	if err := Reconcile(context.Background(), goal, cfg, 3); err != nil {
		t.Fatal(err)
	}
	for _, d := range sim.Observe().Devices {
		if d.AdapterVersion != "v3" || !d.InService() {
			t.Fatalf("not converged: %+v", d)
		}
	}
}

func TestReconcileReportsUnreachableGoal(t *testing.T) {
	obs := Observed{Devices: []DeviceState{
		{Name: "a", Group: 0, Alive: true, AdapterVersion: "v1"},
		{Name: "b", Group: 0, Alive: true, AdapterVersion: "v1"},
	}}
	sim := newSimFleet(obs)
	goal := GoalSpec{Devices: []string{"a", "b"},
		Groups: []GroupGoal{{Group: 0, AdapterVersion: "v2", MinReplicas: 2}}}
	cfg := ExecConfig{Actuator: sim, Observe: sim.Observe, Goal: goal,
		Backoff: time.Millisecond, StepTimeout: time.Second}
	err := Reconcile(context.Background(), goal, cfg, 2)
	if err == nil {
		t.Fatal("unreachable goal reported as converged")
	}
	if _, ok := AsInvariantViolation(err); !ok {
		t.Fatalf("error does not carry the violation: %v", err)
	}
}
