package supervisor

import (
	"context"
	"fmt"
	"time"

	"pac/internal/health"
)

// Drain is a maintenance drain of one pool device while training runs.
// Delay is waited before it starts — after the first snapshot exists
// when snapshots are on, so the re-plan interrupts a run that
// demonstrably has something to recover from.
type Drain struct {
	Device int
	Delay  time.Duration
}

// drain takes the device out of the pool: it waits for the first
// snapshot (bounded) and then Delay, refuses when fewer than Stages
// devices would be left in service, and otherwise quarantines
// the device and requests a "fleet" re-plan through the guard. A device
// that is already dead or quarantined has been planned around: nothing
// is requested. Canceling ctx (training is over) abandons a drain that
// is still waiting; Run does not cancel one that has quarantined its
// device. Returns a one-line outcome for Run to print.
func (s *Supervisor) drain(ctx context.Context) string {
	d, stages := s.cfg.Drain, s.cfg.Core.Stages
	name := s.cfg.Pool.Devices[d.Device].Name
	waitSnap := s.cfg.Core.SnapshotEvery > 0

	// Pace the drain by training progress, not wall clock (bounded, so a
	// run that never captures cannot hold the drain back forever).
	if waitSnap && s.latestSnapshot() == nil {
		paced, cancel := context.WithTimeout(ctx, 30*time.Second)
		select {
		case <-s.firstSnap:
		case <-paced.Done():
		}
		cancel()
	}
	select {
	case <-time.After(d.Delay):
	case <-ctx.Done():
	}
	switch {
	case ctx.Err() != nil:
		return fmt.Sprintf("fleet drain of %s skipped: training finished first", name)
	case waitSnap && s.latestSnapshot() == nil:
		return fmt.Sprintf("fleet drain of %s: no training snapshot before drain", name)
	case s.sidelined.out(name):
		return fmt.Sprintf("fleet drain of %s: already out of service, nothing to re-plan", name)
	}

	// The one safety rule: enough devices stay in service to fill every
	// stage. The device is one of the attempt's, since it is in service.
	devices := s.attemptDevices()
	at, left := place(devices, name), 0
	for _, dev := range devices.Devices {
		if dev.Name != name && !s.sidelined.out(dev.Name) {
			left++
		}
	}
	if left < stages {
		return fmt.Sprintf("fleet drain of %s refused: stage %d would have no device in service", name, at%stages)
	}

	s.draining.Store(true)
	s.sidelined.add(name, "quarantine")
	s.guard.request("fleet", health.Alert{Lane: at / stages, Stage: at % stages, Rank: -1})
	return fmt.Sprintf("fleet drain of %s complete: snapshot taken, device quarantined, training re-planned around it", name)
}
