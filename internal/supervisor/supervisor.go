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
// sidelined, what the planner is fed, and whether the recovery budget
// is charged:
//
//	failure  an engine reported a rank past its step deadline; it
//	         supersedes any other request of the same attempt. The
//	         device it maps to is marked dead (none, and the pool stays
//	         intact, when it maps to no pool device); analytic costs;
//	         charged to MaxRecoveries.
//	drift    the attempt's health monitor found a lane slower than the
//	         healthy median or than the cost model's per-stage
//	         prediction (acted on only with ReplanOnDrift, and only
//	         while more than one lane is left). Every stage of the lane
//	         is quarantined; the measured per-stage profile, analytic
//	         until one exists; free.
//	fleet    a maintenance drain of one device (Drain), run beside the
//	         loop, has quarantined the device; refused when its stage
//	         would be left with no device in service, a no-op when the
//	         device is already out; analytic costs; free.
//
// After any of them the plan is printed, the lane count shrinks by one
// to fit the smaller pool, injected faults are cleared (they have
// fired), and the next attempt is built from the latest snapshot. The
// printed plan is advisory: the next attempt runs on one lane fewer
// whatever it says, a drift re-plan's plan from measured costs included.
// ROADMAP item 17 decides whether the plan should run instead.
//
// The devices are goroutines of this process: nothing can heartbeat on
// their behalf and the step deadline is the failure detector, so the
// liveness tracker's TTL never expires and a device leaves the
// surviving set only by MarkDead or Quarantine.
package supervisor

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pac/internal/checkpoint"
	"pac/internal/cluster"
	"pac/internal/core"
	"pac/internal/costmodel"
	"pac/internal/data"
	"pac/internal/health"
	"pac/internal/parallel"
	"pac/internal/peft"
	"pac/internal/planner"
	"pac/internal/profiler"
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
	// Health, OnSnapshot, Faults and WrapTransport, and lowers Lanes as
	// re-plans shrink the pool.
	Core core.Config
	// Build assembles one attempt's trainer; given a snapshot it restores
	// the training state, salvages the cache and returns the cursor to
	// continue from.
	Build func(core.Config, *checkpoint.Snapshot) (Trainer, core.Cursor, error)

	Data          *data.Dataset
	Batch, Epochs int             // Epochs is the total; the first fills the cache
	Task          string          // stamped on every snapshot
	Pool          cluster.Cluster // device = lane·stages + stage

	SnapshotDir string // persist snapshots here ("" keeps only the latest, in memory)
	Resume      bool   // start from the newest snapshot in SnapshotDir

	MaxRecoveries   int     // recoveries from device failures before giving up (0 = fail fast)
	ReplanOnDrift   bool    // let lane-attributable health alerts request a re-plan
	StragglerFactor float64 // the monitor's slow-vs-median threshold

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
	cfg    Config
	out    io.Writer
	core   core.Config           // the next attempt's configuration
	blocks []costmodel.BlockCost // analytic costs of the model under training
	live   *cluster.Liveness

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
// and readies the liveness tracker and the first attempt's config.
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
	// The analytic cost model, at the sequence lengths the synthetic
	// tasks use.
	s.blocks = costmodel.Costs{Cfg: s.core.Model, Kind: peft.ParallelAdapters, EncSeq: 16, DecSeq: 2}.Blocks()
	s.live = cluster.NewLiveness(time.Duration(math.MaxInt64))
	for _, d := range cfg.Pool.Devices {
		s.live.Heartbeat(d.Name)
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
		s.core.WrapTransport = nil // the injected fault has fired

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
	pool, blocks := s.cfg.Pool, s.blocks
	var planOn cluster.Cluster
	switch trigger {
	case "failure":
		rf, _ := parallel.AsRankFailed(cause)
		alert = health.Alert{Lane: rf.Lane, Rank: rf.Rank}
		if s.res.Recoveries >= s.cfg.MaxRecoveries {
			return fmt.Errorf("device failure after %d recoveries: %w: %w", s.res.Recoveries, ErrRecoveryBudget, cause)
		}
		s.res.Recoveries++
		idx, known := attributeDevice(rf, s.core.Stages, pool.Size())
		if !known {
			// A collective-level fault names no concrete device: keep the
			// pool intact rather than blame an arbitrary member.
			fmt.Fprintf(s.out, "FAILURE: unknown device (rank %d, lane %d): %v — pool unchanged\n", rf.Rank, rf.Lane, rf)
			return nil
		}
		s.live.MarkDead(pool.Devices[idx].Name)
		fmt.Fprintf(s.out, "FAILURE: device %s detected dead (%v)\n", pool.Devices[idx].Name, rf)
		planOn = s.live.Survivors(pool)
		fmt.Fprintf(s.out, "re-planning on %d surviving device(s): %v\n", planOn.Size(), deviceNames(planOn))
	case "fleet":
		s.res.FleetReplans++
		planOn = s.live.Survivors(pool)
		fmt.Fprintf(s.out, "re-planning on fleet drain: %d surviving device(s): %v\n", planOn.Size(), deviceNames(planOn))
	case "drift":
		s.res.DriftReplans++
		fmt.Fprintf(s.out, "re-planning on drift: %s\n", alert)
		if alert.Lane >= 0 && s.core.Lanes > 1 {
			for st := 0; st < s.core.Stages; st++ {
				if idx := alert.Lane*s.core.Stages + st; idx < pool.Size() {
					s.live.Quarantine(pool.Devices[idx].Name)
				}
			}
			fmt.Fprintf(s.out, "quarantined lane %d: %v\n", alert.Lane, s.live.Quarantined())
		}
		planOn = s.live.Survivors(pool)
		blocks, planOn = s.measuredProfile(planOn)
	}
	mReplans[trigger].Inc()
	health.Flight().Record("replan", alert.Lane, alert.Rank, trigger, alert.Ratio)
	s.core.Trace.Instant("replan", "replan:"+trigger, 0, 0)

	label := "re-plan"
	if trigger != "failure" {
		label = "re-plan (" + trigger + ")"
	}
	if plan, err := planner.New(planner.Input{Blocks: blocks, Cluster: planOn, MiniBatch: s.cfg.Batch}); err != nil {
		fmt.Fprintf(s.out, "%s: no feasible configuration on survivors (%v)\n", label, err)
	} else {
		fmt.Fprintf(s.out, "%s: %s\n", label, plan)
	}
	// The sidelined lane's remaining devices are reassigned: shrink the
	// lane count to fit the smaller pool. With one lane left there is
	// nothing for a drift re-plan to shed.
	if s.core.Lanes > 1 {
		s.core.Lanes--
	}
	if s.core.Lanes == 1 {
		s.driftEnabled.Store(false)
	}
	return nil
}

func (s *Supervisor) perLaneBatch() int { return max(s.cfg.Batch/s.core.Lanes, 1) }

// measuredProfile is the drift path's profile feedback: it folds the
// last attempt's measured per-stage times into the profiler's
// calibration, so the new plan reflects the host this run executes on,
// and returns block costs and a cluster of survivors.Size() devices
// calibrated to them. Without enough measurements it returns the
// analytic costs and the survivors.
func (s *Supervisor) measuredProfile(survivors cluster.Cluster) ([]costmodel.BlockCost, cluster.Cluster) {
	analytic := s.blocks
	fwd, bwd, ok := s.monitors[len(s.monitors)-1].StageFwdBwdSeconds()
	if !ok {
		return analytic, survivors
	}
	bounds := parallel.EvenBoundaries(len(analytic), s.core.Stages)
	prof, err := profiler.FromStageSeconds(analytic, bounds, fwd, bwd, s.perLaneBatch())
	if err != nil {
		return analytic, survivors
	}
	ref := s.cfg.Pool.Devices[0]
	dev := prof.CalibrateDevice("measured", ref.MemoryBytes, ref.LinkMbps)
	measured, err := prof.ToBlockCosts(analytic, dev)
	if err != nil {
		return analytic, survivors
	}
	fmt.Fprintf(s.out, "profile feedback: measured %.1f effective GFLOPS over %d stage(s)\n",
		prof.EffectiveGFLOPS, len(fwd))
	return measured, cluster.Homogeneous(dev, survivors.Size())
}

// build assembles the next attempt: a fresh health monitor, fed per
// step by the engines and given the cost model's per-stage expectations
// for the attempt's shape, then the caller's trainer.
func (s *Supervisor) build(snap *checkpoint.Snapshot) (Trainer, core.Cursor, error) {
	mon := health.NewMonitor(health.Config{
		StragglerFactor: s.cfg.StragglerFactor,
		ExpectedStageSec: costmodel.StageSeconds(s.blocks,
			parallel.EvenBoundaries(len(s.blocks), s.core.Stages), s.perLaneBatch(), s.cfg.Pool.Devices[0]),
		Flight:  health.Flight(),
		OnAlert: s.onAlert,
	})
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

// attributeDevice maps a rank failure to a concrete pool index: phase-1
// failures carry (lane, stage), cached-phase failures a DP rank that is
// the device index directly. A rank that falls outside the pool — a
// collective-level fault, or an error surfaced after a re-plan changed
// the pool shape — is reported as unknown rather than blamed on an
// arbitrary device.
func attributeDevice(rf *parallel.RankFailedError, stages, poolSize int) (int, bool) {
	idx := rf.Rank
	if rf.Lane >= 0 {
		idx = rf.Lane*stages + rf.Rank
	}
	if idx < 0 || idx >= poolSize {
		return -1, false
	}
	return idx, true
}

func deviceNames(c cluster.Cluster) []string {
	out := make([]string, c.Size())
	for i, d := range c.Devices {
		out[i] = d.Name
	}
	return out
}
