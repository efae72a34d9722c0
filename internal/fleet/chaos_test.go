package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// chaosActuator wraps an actuator with seeded fault
// injection: Swap and Snapshot attempts fail transiently (at most twice
// per step, so the executor's retry budget always wins eventually) and
// every successful application is counted per step ID — the evidence
// that resume never repeated a completed step.
type chaosActuator struct {
	inner Actuator

	mu       sync.Mutex
	rng      *rand.Rand
	injected map[string]int
	success  map[string]int
}

func newChaosActuator(inner Actuator, seed int64) *chaosActuator {
	return &chaosActuator{inner: inner, rng: rand.New(rand.NewSource(seed)),
		injected: map[string]int{}, success: map[string]int{}}
}

func (c *chaosActuator) Apply(ctx context.Context, step Step) error {
	if step.Kind == StepSwap || step.Kind == StepSnapshot {
		c.mu.Lock()
		inject := c.injected[step.ID] < 2 && c.rng.Float64() < 0.5
		if inject {
			c.injected[step.ID]++
		}
		c.mu.Unlock()
		if inject {
			return fmt.Errorf("chaos: injected fault on %s", step.ID)
		}
	}
	if err := c.inner.Apply(ctx, step); err != nil {
		return err
	}
	c.mu.Lock()
	c.success[step.ID]++
	c.mu.Unlock()
	return nil
}

func (c *chaosActuator) successCount(id string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.success[id]
}

// chaosFleet is a 2-group × 3-device fleet at version v1, as a map of
// device states the test actuates.
func chaosFleet() *simFleet {
	var obs Observed
	for g := 0; g < 2; g++ {
		for i := 0; i < 3; i++ {
			obs.Devices = append(obs.Devices, DeviceState{Name: devName(g, i), Group: g, Alive: true, AdapterVersion: "v1"})
		}
	}
	return newSimFleet(obs)
}

// TestChaosRollingUpgradeCrashResume is the acceptance test for the
// fleet orchestrator: a rolling v1→v2 upgrade with seeded transient
// faults and an orchestrator crash mid-plan. It proves (a) the safety
// invariants held at every step transition and (b) the resumed
// orchestrator moved forward only — every step, Swap and Snapshot
// included, succeeded exactly once, and the journal shows the skips.
func TestChaosRollingUpgradeCrashResume(t *testing.T) {
	rs := chaosFleet()
	goal := goalFor(rs.Observe(), "v2", 2)
	plan, err := Diff(goal, rs.Observe())
	if err != nil {
		t.Fatal(err)
	}
	chaos := newChaosActuator(rs, 42)
	journalPath := filepath.Join(t.TempDir(), "rollout.pacj")

	// Invariant probe: at every transition of either executor, the live
	// observed state must respect the floors and single-group rule.
	var vioMu sync.Mutex
	var violations []string
	probe := func(step Step, trans string, attempt int, err error) {
		obs := rs.Observe()
		var broken []string
		if d := obs.DegradedGroups(); len(d) > 1 {
			broken = append(broken, fmt.Sprintf("%d groups degraded at once", len(d)))
		}
		for _, g := range obs.Groups() {
			if n := obs.InServiceInGroup(g); n < 2 {
				broken = append(broken, fmt.Sprintf("group %d at %d in-service (floor 2)", g, n))
			}
		}
		if len(broken) > 0 {
			vioMu.Lock()
			violations = append(violations,
				fmt.Sprintf("at %s %s: %v", trans, step.ID, broken))
			vioMu.Unlock()
		}
	}

	// First orchestrator: crashes (context canceled, process state
	// abandoned) after 6 completed steps. Only the control plane dies.
	j1, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, crash := context.WithCancel(context.Background())
	var crashMu sync.Mutex
	doneCount := 0
	exec1, err := NewExecutor(ExecConfig{
		Actuator: chaos, Observe: rs.Observe, Goal: goal, Journal: j1,
		Retries: 2, Backoff: time.Millisecond, StepTimeout: 5 * time.Second,
		OnTransition: func(step Step, trans string, attempt int, err error) {
			probe(step, trans, attempt, err)
			if trans == TransDone {
				crashMu.Lock()
				doneCount++
				if doneCount == 6 {
					crash()
				}
				crashMu.Unlock()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if err := exec1.Run(ctx1, plan); err == nil {
		t.Fatal("crashed executor reported success")
	}
	j1.Close()
	crashMu.Lock()
	crashedDones := doneCount
	crashMu.Unlock()
	if crashedDones < 6 {
		t.Fatalf("crash fired after %d dones, want >= 6", crashedDones)
	}

	// Second orchestrator: a fresh executor, same journal, same plan —
	// the crash-resume path. It must finish the rollout forward-only.
	j2, err := OpenJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	exec2, err := NewExecutor(ExecConfig{
		Actuator: chaos, Observe: rs.Observe, Goal: goal, Journal: j2,
		Retries: 2, Backoff: time.Millisecond, StepTimeout: 5 * time.Second,
		OnTransition: probe})
	if err != nil {
		t.Fatal(err)
	}
	if err := exec2.Run(context.Background(), plan); err != nil {
		t.Fatalf("resume failed: %v", err)
	}

	// (a) Invariants held at every transition.
	vioMu.Lock()
	if len(violations) > 0 {
		t.Fatalf("safety invariants violated:\n%v", violations)
	}
	vioMu.Unlock()

	// (b) Forward-only resume: every step succeeded exactly once across
	// both executors — in particular no Swap or Snapshot repeated — and
	// the journal proves the resumed run skipped the crashed run's work.
	for _, s := range plan.Steps {
		if n := chaos.successCount(s.ID); n != 1 {
			t.Errorf("step %s applied successfully %d times, want exactly 1", s.ID, n)
		}
	}
	recs, torn, err := ReadJournal(journalPath)
	if err != nil || torn {
		t.Fatalf("journal unreadable: torn=%v err=%v", torn, err)
	}
	dones := map[string]int{}
	skips, planDone := 0, false
	for _, r := range recs {
		switch {
		case r.Kind == "step" && r.Transition == TransDone:
			dones[r.StepID]++
		case r.Kind == "step" && r.Transition == TransSkip:
			skips++
		case r.Kind == "plan-done" && r.Fingerprint == plan.Fingerprint:
			planDone = true
		}
	}
	for id, n := range dones {
		if n != 1 {
			t.Errorf("journal shows %d done records for %s, want 1", n, id)
		}
	}
	if skips < crashedDones {
		t.Errorf("journal shows %d skips, want >= %d (the crashed run's completed steps)", skips, crashedDones)
	}
	if !planDone {
		t.Error("journal missing plan-done marker")
	}

	// The fleet converged: every device in service at v2, and the goal
	// re-diffs to an empty plan.
	for _, d := range rs.Observe().Devices {
		if !d.InService() || d.AdapterVersion != "v2" {
			t.Fatalf("device %s not converged: %+v", d.Name, d)
		}
	}
	if again, _ := Diff(goal, rs.Observe()); !again.Empty() {
		t.Fatalf("converged fleet re-diffs to %d steps", len(again.Steps))
	}
}
