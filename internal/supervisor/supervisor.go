// Package supervisor is the recovery supervisor around PAC's training
// loop: it runs fine-tuning as a sequence of attempts on a pool of
// in-process devices and, when an attempt is interrupted, re-plans on
// the devices that are left and continues from the latest snapshot
// instead of restarting.
//
// With SnapshotEvery K the framework captures a consistent training
// snapshot (adapter weights, optimizer moments, resume cursor, cache
// manifest) after every K-th step. The supervisor holds the latest one
// in memory and, with a SnapshotDir, persists generations durably off
// the training path; the newest on disk is what Resume, and a recovery
// with nothing in memory, continues from. The activation cache outlives
// every attempt, so a successor salvages it — recomputing only lost or
// corrupt entries — rather than refilling it.
//
// Three things interrupt an attempt. All go through one guard (the
// first request of an attempt wins and cancels it, later ones coalesce)
// into one re-plan path, where the trigger decides only who is
// sidelined and whether the recovery budget is charged:
//
//	failure  an engine reported a rank past its step deadline; it
//	         supersedes any other request of the same attempt. The
//	         device it maps to is marked dead (none, and the pool stays
//	         intact, when it maps to none of the attempt's devices);
//	         charged to MaxRecoveries.
//	drift    the attempt's health monitor raised an alert that names a
//	         lane: slower than the healthy median, or than its own early
//	         baseline (acted on only with ReplanOnDrift, and only while
//	         more than one lane is left). Every device of the lane is
//	         quarantined; free.
//	fleet    a maintenance drain of one device (Drain), run beside the
//	         loop, has quarantined the device; refused when fewer than
//	         Stages devices would be left in service, a no-op when the
//	         device is already out; free.
//
// After any of them the lane count shrinks by one to fit the smaller
// pool, the shape the next attempt runs is printed, the injected crash
// and straggler are cleared (they have fired; background drops stay),
// and the next attempt is built from the latest snapshot. No planner
// runs: a re-plan runs one lane fewer, and says so. When fewer devices
// than stages survive, the drain's floor, the run ends instead, with an
// error naming both counts.
//
// Each attempt runs on the devices that survive when it is built, in
// pool order: lane L, stage S is the attempt's device L·Stages+S, and
// DP rank r of the cached phase its device r. Failure attribution, the
// drift quarantine, the drain's refusal rule and the injected crash all
// read that one list.
//
// The devices are goroutines of this process: nothing can heartbeat on
// their behalf and the step deadline is the failure detector. A device
// leaves the surviving set only by being sidelined, dead or
// quarantined, and does not come back.
package supervisor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pac/internal/checkpoint"
	"pac/internal/cluster"
	"pac/internal/core"
	"pac/internal/data"
	"pac/internal/health"
	"pac/internal/parallel"
	"pac/internal/telemetry"
)

// Re-plan decisions by trigger, and their outcome: the whole-step EWMA
// before the first re-plan against after the last one.
var (
	mReplans = map[string]*telemetry.Counter{
		"failure": telemetry.Default().Counter("pac_replans_total", "trigger", "failure"),
		"drift":   telemetry.Default().Counter("pac_replans_total", "trigger", "drift"),
		"fleet":   telemetry.Default().Counter("pac_replans_total", "trigger", "fleet"),
	}
	mReplanImproved = telemetry.Default().Counter("pac_replan_outcomes_total", "outcome", "improved")
	mReplanRegressd = telemetry.Default().Counter("pac_replan_outcomes_total", "outcome", "regressed")
)

// ErrRecoveryBudget marks the error Run returns when a device failed
// and MaxRecoveries in-process recoveries were already spent. The error
// also wraps the *parallel.RankFailedError that ended the last attempt.
var ErrRecoveryBudget = errors.New("recovery budget exhausted")

// seed is the data-order seed of every attempt; a snapshot carries it,
// so a resumed attempt replays the order the interrupted one used.
const seed = 1

// Trainer is one attempt's training engine. *core.Framework is the real
// one; tests script a fake.
type Trainer interface {
	FineTuneFromCtx(ctx context.Context, ds *data.Dataset, batch, epochs int, seed int64, from core.Cursor) (float64, error)
}

// Config is what one supervised run needs. A nil Crash, Slow or Drain,
// or a negative Device/Lane in one (the flags' -1), disables it.
type Config struct {
	// Core is the template for every attempt: the supervisor fills in
	// Health, OnSnapshot and WrapTransport, and lowers Lanes as re-plans
	// shrink the pool.
	Core core.Config
	// Build assembles one attempt's trainer; given a snapshot it restores
	// the training state, salvages the cache and returns the cursor to
	// continue from.
	Build func(core.Config, *checkpoint.Snapshot) (Trainer, core.Cursor, error)

	Data          *data.Dataset
	Batch, Epochs int             // Epochs is the total; the first fills the cache
	Task          string          // stamped on every snapshot
	Pool          cluster.Cluster // an attempt runs on its survivors, in pool order

	SnapshotDir string // persist snapshots here ("" keeps only the latest, in memory)
	Resume      bool   // start from the newest snapshot in SnapshotDir

	MaxRecoveries int  // recoveries from device failures before giving up (0 = fail fast)
	ReplanOnDrift bool // let lane-attributable health alerts request a re-plan

	FaultDrop float64 // per-send probability of an injected transient drop
	Crash     *Crash
	Slow      *Slow
	Drain     *Drain

	Out io.Writer
}

// Result is what a finished run reports.
type Result struct {
	Loss             float64       // training loss of the last attempt
	Elapsed          time.Duration // first attempt's start to last attempt's end
	Recoveries       int           // failure re-plans, the ones charged to MaxRecoveries
	DriftReplans     int
	FleetReplans     int
	SnapshotsWritten int // to SnapshotDir
}

// Supervisor runs one training job. Build it with New, run it once.
type Supervisor struct {
	cfg       Config
	out       io.Writer
	core      core.Config // the next attempt's configuration
	sidelined sidelined
	// devices is the current attempt's devices: the survivors when it was
	// built, in pool order. build stores it; the drain goroutine reads it.
	devices atomic.Pointer[cluster.Cluster]

	guard        replanGuard
	driftEnabled atomic.Bool
	draining     atomic.Bool       // the fleet drain has quarantined its device
	monitors     []*health.Monitor // one per attempt

	snapMu    sync.Mutex
	lastSnap  *checkpoint.Snapshot
	firstSnap chan struct{} // closed by the first in-process capture
	snapOnce  sync.Once
	writer    *checkpoint.Snapshotter

	res Result
}

// New validates cfg, announces the configured fault injection on Out,
// and readies the first attempt's config.
func New(cfg Config) (*Supervisor, error) {
	s := &Supervisor{cfg: cfg, out: cfg.Out, core: cfg.Core, firstSnap: make(chan struct{})}
	if cfg.Resume && cfg.SnapshotDir == "" {
		return nil, fmt.Errorf("-resume requires -snapshot-dir")
	}
	if d := cfg.Drain; d != nil && d.Device < 0 {
		s.cfg.Drain = nil
	} else if d != nil && d.Device >= cfg.Pool.Size() {
		return nil, fmt.Errorf("-drain-device %d out of range (pool has %d devices)", d.Device, cfg.Pool.Size())
	}
	if err := s.shapeFaults(); err != nil {
		return nil, err
	}
	s.core.OnSnapshot = s.onSnapshot
	s.driftEnabled.Store(cfg.ReplanOnDrift)
	return s, nil
}

// Run trains to completion: attempt, and on a device failure, a drift
// request or a fleet drain re-plan, rebuild from the latest snapshot and
// go again. It prints the health and fleet summary when training ends.
func (s *Supervisor) Run() (Result, error) {
	start, err := s.resumePoint()
	if err != nil {
		return s.res, err
	}
	tr, cursor, err := s.build(start)
	if err != nil {
		return s.res, err
	}
	if s.cfg.SnapshotDir != "" {
		if s.writer, err = checkpoint.NewSnapshotter(s.cfg.SnapshotDir, 3); err != nil {
			return s.res, err
		}
	}

	// The drain runs beside the loop and never writes to Out. Its outcome
	// is collected once the loop is over: a drain still waiting for its
	// turn is canceled, one that has quarantined its device is done.
	drainCtx, stopDrain := context.WithCancel(context.Background())
	defer stopDrain()
	var drained chan string
	if s.cfg.Drain != nil {
		drained = make(chan string, 1)
		go func() { drained <- s.drain(drainCtx) }()
	}
	began := time.Now()
	err = s.attempts(tr, cursor)
	s.res.Elapsed = time.Since(began)
	s.closeWriter()
	outcome := ""
	if drained != nil {
		if !s.draining.Load() {
			stopDrain()
		}
		outcome = <-drained
	}
	if err != nil {
		return s.res, err
	}

	reports, alerts := 0, 0
	for _, m := range s.monitors {
		reports += m.Reports()
		alerts += len(m.Alerts())
	}
	fmt.Fprintf(s.out, "health: %d step reports, %d alerts, %d drift re-plan(s) across %d attempt(s)\n",
		reports, alerts, s.res.DriftReplans, len(s.monitors))
	if drained != nil {
		fmt.Fprintln(s.out, outcome)
		fmt.Fprintf(s.out, "fleet: %d drain re-plan(s)\n", s.res.FleetReplans)
	}
	if len(s.monitors) > 1 {
		first, last := s.monitors[0].StepEWMASec(), s.monitors[len(s.monitors)-1].StepEWMASec()
		if first > 0 && last > 0 {
			if last < first {
				mReplanImproved.Inc()
			} else {
				mReplanRegressd.Inc()
			}
			fmt.Fprintf(s.out, "health: step EWMA %.4fs before first re-plan, %.4fs after last re-plan\n", first, last)
		}
	}
	return s.res, nil
}

// attempts is the supervisor loop: train; when the attempt is
// interrupted, re-plan, restore the latest snapshot (the trainer
// salvages the cache) and continue from its cursor. No restart from
// scratch as long as a snapshot exists.
func (s *Supervisor) attempts(tr Trainer, cursor core.Cursor) error {
	for {
		ctx, cancel := context.WithCancel(context.Background())
		s.guard.arm(cancel)
		loss, err := tr.FineTuneFromCtx(ctx, s.cfg.Data, s.cfg.Batch, s.cfg.Epochs, seed, cursor)
		cancel()
		trigger, alert := s.guard.take()
		if err == nil {
			s.res.Loss = loss
			return nil // a late request has nothing left to re-plan
		}
		// A dead device supersedes a slow or a drained one: whatever won
		// the guard, a rank failure is handled as a failure.
		if _, failed := parallel.AsRankFailed(err); failed {
			trigger = "failure"
		}
		if trigger == "" {
			return err
		}
		if err := s.replan(trigger, alert, err); err != nil {
			return err
		}
		s.core.WrapTransport = faultWrapper(s.cfg.FaultDrop, nil) // the crash and straggler have fired

		snap := s.latestSnapshot()
		if snap != nil {
			fmt.Fprintf(s.out, "recovering from snapshot: epoch %d, step %d (%d stages × %d lanes)\n",
				snap.Epoch, snap.Step, s.core.Stages, s.core.Lanes)
		} else {
			fmt.Fprintf(s.out, "no snapshot captured yet: restarting from scratch (%d stages × %d lanes, cache preserved)\n",
				s.core.Stages, s.core.Lanes)
		}
		if tr, cursor, err = s.build(snap); err != nil {
			return err
		}
	}
}

// replan is the one re-plan path; the package comment has the rules.
// cause is the error that ended the attempt.
func (s *Supervisor) replan(trigger string, alert health.Alert, cause error) error {
	pool, devices := s.cfg.Pool, s.attemptDevices()
	switch trigger {
	case "failure":
		rf, _ := parallel.AsRankFailed(cause)
		alert = health.Alert{Lane: rf.Lane, Rank: rf.Rank}
		if s.res.Recoveries >= s.cfg.MaxRecoveries {
			return fmt.Errorf("device failure after %d recoveries: %w: %w", s.res.Recoveries, ErrRecoveryBudget, cause)
		}
		s.res.Recoveries++
		dev, known := attributeDevice(rf, s.core.Stages, devices)
		if !known {
			// A collective-level fault names no concrete device: keep the
			// pool intact rather than blame an arbitrary member.
			fmt.Fprintf(s.out, "FAILURE: unknown device (rank %d, lane %d): %v — pool unchanged\n", rf.Rank, rf.Lane, rf)
			return nil
		}
		s.sidelined.add(dev.Name, "dead")
		fmt.Fprintf(s.out, "FAILURE: device %s detected dead (%v)\n", dev.Name, rf)
		left := s.sidelined.survivors(pool)
		fmt.Fprintf(s.out, "re-planning on %d surviving device(s): %v\n", left.Size(), deviceNames(left))
	case "fleet":
		s.res.FleetReplans++
		left := s.sidelined.survivors(pool)
		fmt.Fprintf(s.out, "re-planning on fleet drain: %d surviving device(s): %v\n", left.Size(), deviceNames(left))
	case "drift":
		s.res.DriftReplans++
		fmt.Fprintf(s.out, "re-planning on drift: %s\n", alert)
		if alert.Lane >= 0 && s.core.Lanes > 1 {
			lane := []string{}
			for st := 0; st < s.core.Stages; st++ {
				if idx := alert.Lane*s.core.Stages + st; idx < devices.Size() {
					lane = append(lane, devices.Devices[idx].Name)
					s.sidelined.add(devices.Devices[idx].Name, "quarantine")
				}
			}
			fmt.Fprintf(s.out, "quarantined lane %d: %v\n", alert.Lane, lane)
		}
	}
	// The drain's floor holds for every trigger: an attempt needs a
	// device for each stage, so fewer survivors than stages end the run.
	if left := s.sidelined.survivors(pool).Size(); left < s.core.Stages {
		return fmt.Errorf("re-plan: %d surviving device(s) cannot fill %d stages: %w", left, s.core.Stages, cause)
	}
	mReplans[trigger].Inc()
	health.Flight().Record("replan", alert.Lane, alert.Rank, trigger, alert.Ratio)
	s.core.Trace.Instant("replan", "replan:"+trigger, 0, 0)

	// The sidelined lane's remaining devices are reassigned: shrink the
	// lane count to fit the smaller pool. With one lane left there is
	// nothing for a drift re-plan to shed.
	if s.core.Lanes > 1 {
		s.core.Lanes--
	}
	if s.core.Lanes == 1 {
		s.driftEnabled.Store(false)
	}
	label := "re-plan"
	if trigger != "failure" {
		label = "re-plan (" + trigger + ")"
	}
	fmt.Fprintf(s.out, "%s: %d stages × %d lanes, %d surviving device(s)\n",
		label, s.core.Stages, s.core.Lanes, s.sidelined.survivors(pool).Size())
	return nil
}

// build assembles the next attempt: its devices (the survivors, in pool
// order), a fresh health monitor, fed per step by the engines, then the
// caller's trainer.
func (s *Supervisor) build(snap *checkpoint.Snapshot) (Trainer, core.Cursor, error) {
	devices := s.sidelined.survivors(s.cfg.Pool)
	s.devices.Store(&devices)
	mon := health.NewMonitor(health.Config{Flight: health.Flight(), OnAlert: s.onAlert})
	s.monitors = append(s.monitors, mon)
	s.core.Health = mon
	return s.cfg.Build(s.core, snap)
}

// onAlert prints every alert; a lane-attributable one also requests a
// re-plan through the guard the failure and fleet paths use, so
// concurrent triggers cannot double-re-plan.
func (s *Supervisor) onAlert(a health.Alert) {
	fmt.Fprintf(s.out, "ALERT: %s\n", a)
	if a.Lane >= 0 && s.driftEnabled.Load() {
		s.guard.request("drift", a)
	}
}

// resumePoint is the snapshot the first attempt starts from: the newest
// in SnapshotDir under Resume, none otherwise.
func (s *Supervisor) resumePoint() (*checkpoint.Snapshot, error) {
	if !s.cfg.Resume {
		return nil, nil
	}
	snap, path, err := checkpoint.Latest(s.cfg.SnapshotDir)
	switch {
	case errors.Is(err, os.ErrNotExist):
		fmt.Fprintf(s.out, "resume: no usable snapshot in %s, starting fresh\n", s.cfg.SnapshotDir)
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("resume: %w", err)
	}
	fmt.Fprintf(s.out, "resume: continuing from %s (epoch %d, step %d)\n", path, snap.Epoch, snap.Step)
	return snap, nil
}

// onSnapshot observes every capture: the latest is always held in
// memory (enough for in-process recovery) and handed to the durable
// writer when there is one.
func (s *Supervisor) onSnapshot(snap *checkpoint.Snapshot) {
	snap.Task = s.cfg.Task
	s.snapMu.Lock()
	s.lastSnap = snap
	s.snapMu.Unlock()
	s.snapOnce.Do(func() { close(s.firstSnap) })
	if s.writer != nil {
		s.writer.Write(snap)
	}
}

// latestSnapshot is the latest capture in memory, else the newest on
// disk, else nil.
func (s *Supervisor) latestSnapshot() *checkpoint.Snapshot {
	s.snapMu.Lock()
	snap := s.lastSnap
	s.snapMu.Unlock()
	if snap != nil || s.cfg.SnapshotDir == "" {
		return snap
	}
	snap, _, err := checkpoint.Latest(s.cfg.SnapshotDir)
	if err != nil {
		return nil
	}
	return snap
}

// closeWriter drains the durable writer once training is over (no
// capture can race it then) and records how many snapshots it wrote.
func (s *Supervisor) closeWriter() {
	if s.writer == nil {
		return
	}
	if err := s.writer.Close(); err != nil {
		fmt.Fprintf(s.out, "WARNING: snapshot write failed: %v\n", err)
	}
	s.res.SnapshotsWritten = s.writer.Written()
}

// replanGuard is the single guarded entry point every re-plan trigger
// goes through: the failure, drift and fleet paths race to request a
// re-plan, the first request of an attempt wins and cancels the
// attempt's context, and later requests coalesce into the winner
// instead of double-re-planning.
type replanGuard struct {
	mu      sync.Mutex
	cancel  context.CancelFunc
	pending string
	alert   health.Alert
}

// arm resets the guard for a new attempt whose context cancel is given.
func (g *replanGuard) arm(cancel context.CancelFunc) {
	g.mu.Lock()
	g.cancel = cancel
	g.pending = ""
	g.alert = health.Alert{}
	g.mu.Unlock()
}

// request asks for a re-plan. It returns true for exactly one caller
// per attempt — the winner, whose trigger drives the re-plan — and
// cancels the attempt so training unwinds promptly.
func (g *replanGuard) request(trigger string, a health.Alert) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pending != "" {
		return false
	}
	g.pending = trigger
	g.alert = a
	if g.cancel != nil {
		g.cancel()
	}
	return true
}

// take consumes the pending trigger ("" when none fired).
func (g *replanGuard) take() (string, health.Alert) {
	g.mu.Lock()
	defer g.mu.Unlock()
	t, a := g.pending, g.alert
	g.pending = ""
	return t, a
}

// attemptDevices is the current attempt's devices.
func (s *Supervisor) attemptDevices() cluster.Cluster { return *s.devices.Load() }

// attributeDevice maps a rank failure to the attempt's device it names:
// a phase-1 failure carries (lane, stage), which runs on device
// lane·stages+stage; a cached-phase failure a DP rank, which runs on
// that device. A rank that falls outside the attempt's devices — a
// collective-level fault — is reported as unknown rather than blamed on
// an arbitrary device.
func attributeDevice(rf *parallel.RankFailedError, stages int, devices cluster.Cluster) (cluster.DeviceSpec, bool) {
	idx := rf.Rank
	if rf.Lane >= 0 {
		idx = rf.Lane*stages + rf.Rank
	}
	if idx < 0 || idx >= devices.Size() {
		return cluster.DeviceSpec{}, false
	}
	return devices.Devices[idx], true
}

// place is the position of the named device among devices, -1 when it
// is not one of them.
func place(devices cluster.Cluster, name string) int {
	return slices.IndexFunc(devices.Devices, func(d cluster.DeviceSpec) bool { return d.Name == name })
}

// sidelined is the set of pool devices out of service for the rest of
// the run, each with its reason: "dead" (a rank failure maps to it) or
// "quarantine" (a drift re-plan or a fleet drain). The drain goroutine
// and replan both write it.
type sidelined struct {
	mu  sync.Mutex
	why map[string]string // device name → reason
}

// add sidelines the named device and records the reason as a flight
// event. Dead outranks quarantined; a repeat is a no-op.
func (s *sidelined) add(name, why string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if was := s.why[name]; was == why || was == "dead" {
		return
	}
	if s.why == nil {
		s.why = map[string]string{}
	}
	s.why[name] = why
	health.Flight().Record(why, -1, -1, name, 0)
}

// out reports whether the named device is sidelined.
func (s *sidelined) out(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.why[name] != ""
}

// survivors filters c down to the devices in service, in pool order.
// Devices sharing a name share a fate.
func (s *sidelined) survivors(c cluster.Cluster) cluster.Cluster {
	return c.Survivors(s.out)
}

func deviceNames(c cluster.Cluster) []string {
	out := make([]string, c.Size())
	for i, d := range c.Devices {
		out[i] = d.Name
	}
	return out
}
