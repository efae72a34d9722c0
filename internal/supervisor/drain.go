package supervisor

import (
	"context"
	"fmt"
	"time"

	"pac/internal/fleet"
	"pac/internal/health"
)

// Drain is a goal-state maintenance drain of one pool device while
// training runs. Delay is waited before it starts — after the first
// snapshot exists when snapshots are on, so the Drain step interrupts a
// run that demonstrably has something to recover from.
type Drain struct {
	Device  int
	Delay   time.Duration
	Journal string // the orchestrator's crash-resume journal ("" disables)
}

// drain drives the drain through the fleet orchestrator: the goal
// quarantines the device, Diff plans Snapshot → Drain → Quiesce →
// Verify, and the executor enforces the safety invariants (never below
// a stage group's floor, one group degraded at a time) against the
// liveness tracker's live state. The Snapshot step waits for a training
// snapshot so recovery never restarts from scratch; the Drain step
// quarantines the device and requests a re-plan through the guard.
// Canceling ctx (training is over) abandons a drain wherever it is
// waiting; Run does not cancel one that has taken its Drain step.
// Returns a one-line outcome for Run to print.
func (s *Supervisor) drain(ctx context.Context) string {
	d, pool, stages := s.cfg.Drain, s.cfg.Pool, s.cfg.Core.Stages
	name := pool.Devices[d.Device].Name
	waitSnap := s.cfg.Core.SnapshotEvery > 0
	outcome := func(err error) string {
		switch {
		case err == nil:
			return fmt.Sprintf("fleet drain of %s complete: snapshot taken, device quarantined, training re-planned around it", name)
		case ctx.Err() != nil && !s.draining.Load():
			return fmt.Sprintf("fleet drain of %s skipped: training finished first", name)
		}
		return fmt.Sprintf("fleet drain of %s: %v", name, err)
	}

	// awaitSnapshot returns once a training snapshot exists (at once when
	// snapshots are off).
	awaitSnapshot := func(ctx context.Context) error {
		if !waitSnap || s.latestSnapshot() != nil {
			return nil
		}
		select {
		case <-s.firstSnap:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("no training snapshot before drain: %w", ctx.Err())
		}
	}
	// Pace the drain by training progress, not wall clock (bounded, so a
	// run that never captures cannot hold the drain back forever).
	paced, cancelPaced := context.WithTimeout(ctx, 30*time.Second)
	_ = awaitSnapshot(paced) // on the bound the Snapshot step waits again, and fails the drain
	cancelPaced()
	select {
	case <-time.After(d.Delay):
	case <-ctx.Done():
	}
	if ctx.Err() != nil {
		return outcome(ctx.Err())
	}

	goal := fleet.GoalSpec{Quarantine: []string{name}}
	for i, dev := range pool.Devices {
		goal.Devices = append(goal.Devices, dev.Name)
		if i < stages { // one group per pipeline stage
			goal.Groups = append(goal.Groups, fleet.GroupGoal{Group: i, MinReplicas: 1})
		}
	}

	// Observe folds the liveness tracker into the orchestrator's device
	// model: quarantined devices are alive but sidelined, dead ones gone.
	observe := func() fleet.Observed {
		q := map[string]bool{}
		for _, n := range s.live.Quarantined() {
			q[n] = true
		}
		var obs fleet.Observed
		for i, dev := range pool.Devices {
			obs.Devices = append(obs.Devices, fleet.DeviceState{
				Name:        dev.Name,
				Group:       i % stages,
				Alive:       s.live.Alive(dev.Name) || q[dev.Name],
				Quarantined: q[dev.Name],
			})
		}
		return obs
	}

	act := fleet.ActuatorFunc(func(ctx context.Context, step fleet.Step) error {
		switch step.Kind {
		case fleet.StepSnapshot:
			return awaitSnapshot(ctx)
		case fleet.StepDrain:
			s.draining.Store(true)
			s.live.Quarantine(step.Device)
			s.guard.request("fleet", health.Alert{Lane: d.Device / stages, Stage: d.Device % stages, Rank: -1})
			return nil
		case fleet.StepVerify:
			for _, n := range s.live.Quarantined() {
				if n == step.Device {
					return nil
				}
			}
			return fmt.Errorf("verify %s: not quarantined", step.Device)
		default: // Quiesce and the rest are no-ops against the training pool
			return nil
		}
	})

	var journal *fleet.Journal
	if d.Journal != "" {
		j, err := fleet.OpenJournal(d.Journal)
		if err != nil {
			return outcome(err)
		}
		journal = j
		defer journal.Close()
	}
	rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	return outcome(fleet.Reconcile(rctx, goal, fleet.ExecConfig{
		Actuator: act, Observe: observe, Goal: goal, Journal: journal,
		StepTimeout: 5 * time.Second, Retries: 1,
	}, 3))
}
