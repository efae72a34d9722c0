package supervisor

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pac/internal/checkpoint"
	"pac/internal/cluster"
	"pac/internal/core"
	"pac/internal/data"
	"pac/internal/health"
	"pac/internal/model"
	"pac/internal/parallel"
)

// attempt scripts one attempt of the fake trainer: it gets the
// attempt's context, the core.Config the supervisor built it with and
// the supervisor itself (to raise alerts the way a monitor would), and
// returns what FineTuneFromCtx returns.
type attempt func(ctx context.Context, c core.Config, s *Supervisor) error

// script is a fake Build: attempt i of the run executes steps[i]. It
// records what each attempt was built with.
type script struct {
	sup     *Supervisor
	steps   []attempt
	built   []core.Config
	cursors []core.Cursor
}

type scripted func(ctx context.Context) error

func (f scripted) FineTuneFromCtx(ctx context.Context, _ *data.Dataset, _, _ int, _ int64, _ core.Cursor) (float64, error) {
	return 0.25, f(ctx)
}

func (sc *script) build(c core.Config, snap *checkpoint.Snapshot) (Trainer, core.Cursor, error) {
	i := len(sc.built)
	if i >= len(sc.steps) {
		return nil, core.Cursor{}, fmt.Errorf("script has no attempt %d", i)
	}
	var cur core.Cursor
	if snap != nil {
		cur = core.Cursor{Epoch: snap.Epoch, Step: snap.Step}
	}
	sc.built = append(sc.built, c)
	sc.cursors = append(sc.cursors, cur)
	return scripted(func(ctx context.Context) error { return sc.steps[i](ctx, c, sc.sup) }), cur, nil
}

// names returns the sorted names sidelined for why.
func (s *sidelined) names(why string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := []string{}
	for name, w := range s.why {
		if w == why {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// dead and quarantined list the pool's devices sidelined for each reason.
func (sc *script) dead() []string        { return sc.sup.sidelined.names("dead") }
func (sc *script) quarantined() []string { return sc.sup.sidelined.names("quarantine") }

// supervise runs steps under a supervisor on 2 stages × cfg.Core.Lanes
// lanes of nanos, 2 lanes when cfg leaves it 0; ready, when non-nil,
// gets the built supervisor before Run.
func supervise(t *testing.T, cfg Config, ready func(*Supervisor), steps ...attempt) (*script, Result, string, error) {
	t.Helper()
	var out strings.Builder
	sc := &script{steps: steps}
	cfg.Core.Model = model.Tiny()
	if cfg.Core.Lanes == 0 {
		cfg.Core.Lanes = 2
	}
	cfg.Core.Stages = 2
	cfg.Pool = cluster.Nanos(2 * cfg.Core.Lanes)
	cfg.Batch, cfg.Epochs, cfg.Task = 8, 2, "SST-2"
	cfg.Build, cfg.Out = sc.build, &out
	sup, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	sc.sup = sup
	if ready != nil {
		ready(sup)
	}
	res, err := sup.Run()
	return sc, res, out.String(), err
}

func wantOutput(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, w := range wants {
		if !strings.Contains(out, w) {
			t.Errorf("output missing %q:\n%s", w, out)
		}
	}
}

// Scripted attempts.
var (
	finish = func(context.Context, core.Config, *Supervisor) error { return nil }
	// lane1Stage1Dies: device 3 misses its step deadline.
	lane1Stage1Dies = func(context.Context, core.Config, *Supervisor) error {
		return fmt.Errorf("phase 1: %w", &parallel.RankFailedError{Rank: 1, Lane: 1, Op: "recv f3", Err: errors.New("deadline")})
	}
	lane1Slow = health.Alert{Kind: health.Straggler, Engine: "hybrid", Lane: 1, Stage: -1, Rank: -1, Ratio: 4}
)

// snapshotThen captures a snapshot at (epoch, step) before next runs.
func snapshotThen(epoch, step int, next attempt) attempt {
	return func(ctx context.Context, c core.Config, s *Supervisor) error {
		c.OnSnapshot(&checkpoint.Snapshot{Epoch: epoch, Step: step})
		return next(ctx, c, s)
	}
}

// untilCanceled trains "forever": it returns when the guard cancels the
// attempt, as the engines do.
func untilCanceled(ctx context.Context, _ core.Config, _ *Supervisor) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(10 * time.Second):
		return errors.New("attempt was never canceled")
	}
}

func TestFailureReplan(t *testing.T) {
	sc, res, out, err := supervise(t, Config{MaxRecoveries: 3}, nil,
		snapshotThen(1, 7, lane1Stage1Dies), finish)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, out)
	}
	wantOutput(t, out,
		"FAILURE: device jetson-nano-3 detected dead",
		"re-planning on 3 surviving device(s): [jetson-nano-0 jetson-nano-1 jetson-nano-2]",
		"re-plan: 2 stages × 1 lanes, 3 surviving device(s)",
		"recovering from snapshot: epoch 1, step 7 (2 stages × 1 lanes)",
		"health: 0 step reports, 0 alerts, 0 drift re-plan(s) across 2 attempt(s)")
	if got := sc.dead(); len(got) != 1 || got[0] != "jetson-nano-3" {
		t.Errorf("dead devices %v, want [jetson-nano-3]", got)
	}
	if res.Recoveries != 1 || res.DriftReplans != 0 || res.FleetReplans != 0 {
		t.Errorf("result %+v, want 1 recovery and nothing else", res)
	}
	if len(sc.built) != 2 || sc.built[0].Lanes != 2 || sc.built[1].Lanes != 1 {
		t.Fatalf("attempts built with lanes %v, want 2 then 1", lanesOf(sc.built))
	}
	if want := (core.Cursor{Epoch: 1, Step: 7}); sc.cursors[1] != want {
		t.Errorf("second attempt starts at %+v, want the snapshot's %+v", sc.cursors[1], want)
	}
	if sc.built[0].Health == sc.built[1].Health {
		t.Error("attempts share a health monitor")
	}
}

func lanesOf(cs []core.Config) []int {
	out := make([]int, len(cs))
	for i, c := range cs {
		out[i] = c.Lanes
	}
	return out
}

// TestReplanPrintsTheShapeItRuns: each re-plan line states the stages ×
// lanes the next attempt is built with and the devices left in service.
func TestReplanPrintsTheShapeItRuns(t *testing.T) {
	shape := regexp.MustCompile(`re-plan(?: \((\w+)\))?: (\d+) stages × (\d+) lanes, (\d+) surviving device\(s\)`)
	slowLane := func(lane int) attempt {
		return func(ctx context.Context, c core.Config, s *Supervisor) error {
			s.onAlert(health.Alert{Kind: health.Straggler, Engine: "hybrid", Lane: lane, Stage: -1, Rank: -1, Ratio: 4})
			return untilCanceled(ctx, c, s)
		}
	}
	drain := Config{Drain: &Drain{Device: 3}}
	drain.Core.SnapshotEvery = 1
	threeLanes := Config{ReplanOnDrift: true}
	threeLanes.Core.Lanes = 3
	for _, tc := range []struct {
		name      string
		cfg       Config
		steps     []attempt
		triggers  []string // "" for a failure
		survivors []int
	}{
		{"failure", Config{MaxRecoveries: 1}, []attempt{lane1Stage1Dies, finish}, []string{""}, []int{3}},
		{"drift twice on 3 lanes", threeLanes, []attempt{slowLane(1), slowLane(0), finish}, []string{"drift", "drift"}, []int{4, 2}},
		{"fleet", drain, []attempt{snapshotThen(0, 2, untilCanceled), finish}, []string{"fleet"}, []int{3}},
	} {
		sc, _, out, err := supervise(t, tc.cfg, nil, tc.steps...)
		if err != nil {
			t.Fatalf("%s: Run: %v\n%s", tc.name, err, out)
		}
		lines := shape.FindAllStringSubmatch(out, -1)
		if len(lines) != len(tc.triggers) || len(sc.built) != len(lines)+1 {
			t.Fatalf("%s: %d re-plan lines, %d attempts: want %d and %d\n%s",
				tc.name, len(lines), len(sc.built), len(tc.triggers), len(tc.triggers)+1, out)
		}
		for i, m := range lines {
			next := sc.built[i+1]
			stages, _ := strconv.Atoi(m[2])
			lanes, _ := strconv.Atoi(m[3])
			left, _ := strconv.Atoi(m[4])
			if m[1] != tc.triggers[i] || stages != next.Stages || lanes != next.Lanes || left != tc.survivors[i] {
				t.Errorf("%s: %q, but attempt %d runs %d stages × %d lanes (want trigger %q, %d survivors)",
					tc.name, m[0], i+1, next.Stages, next.Lanes, tc.triggers[i], tc.survivors[i])
			}
		}
	}
}

// TestSurvivorsKeepPoolOrder: the survivors are the pool minus its
// sidelined devices, in pool order; devices sharing a name share a fate.
func TestSurvivorsKeepPoolOrder(t *testing.T) {
	var s sidelined
	pool := cluster.Nanos(4)
	if got := deviceNames(s.survivors(pool)); !slices.Equal(got, deviceNames(pool)) {
		t.Fatalf("nothing sidelined, survivors %v", got)
	}
	s.add("jetson-nano-1", "dead")
	want := []string{"jetson-nano-0", "jetson-nano-2", "jetson-nano-3"}
	if got := deviceNames(s.survivors(pool)); !slices.Equal(got, want) {
		t.Errorf("survivors %v, want %v", got, want)
	}
	if pool.Size() != 4 {
		t.Error("survivors changed the pool")
	}
	dup := cluster.Cluster{Devices: []cluster.DeviceSpec{{Name: "x"}, {Name: "y"}, {Name: "x"}}}
	s.add("x", "quarantine")
	if got := deviceNames(s.survivors(dup)); !slices.Equal(got, []string{"y"}) {
		t.Errorf("duplicate names: survivors %v, want [y]", got)
	}
}

// TestQuarantineExcludesDevice: a quarantined device leaves the
// survivors for good, a dead one outranks its quarantine, and the flight
// ring records each transition once.
func TestQuarantineExcludesDevice(t *testing.T) {
	rec := health.Enable(64)
	defer health.Disable()
	var s sidelined
	pool := cluster.Nanos(3)
	s.add("jetson-nano-2", "quarantine")
	s.add("jetson-nano-2", "quarantine")
	if !s.out("jetson-nano-2") || s.survivors(pool).Size() != 2 {
		t.Fatalf("a quarantined device is in service: %v", deviceNames(s.survivors(pool)))
	}
	s.add("jetson-nano-2", "dead")
	s.add("jetson-nano-2", "quarantine")
	if d, q := s.names("dead"), s.names("quarantine"); !slices.Equal(d, []string{"jetson-nano-2"}) || len(q) != 0 {
		t.Errorf("dead %v, quarantined %v: want the device dead and nothing quarantined", d, q)
	}
	var kinds []string
	for _, ev := range rec.Events() {
		kinds = append(kinds, ev.Kind+" "+ev.Detail)
	}
	if want := []string{"quarantine jetson-nano-2", "dead jetson-nano-2"}; !slices.Equal(kinds, want) {
		t.Errorf("flight events %v, want %v", kinds, want)
	}
}

// TestSidelinedConcurrentWriters: the drain goroutine and replan write
// the set while survivors are read (run it under -race).
func TestSidelinedConcurrentWriters(t *testing.T) {
	var s sidelined
	pool := cluster.Nanos(8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < pool.Size(); i += 4 {
				s.add(pool.Devices[i].Name, []string{"dead", "quarantine"}[w%2])
				s.survivors(pool)
				s.names("quarantine")
			}
		}(w)
	}
	wg.Wait()
	if left := s.survivors(pool); left.Size() != 0 {
		t.Errorf("survivors %v after every device was sidelined", deviceNames(left))
	}
}

func TestRecoveryBudgetExhausted(t *testing.T) {
	_, res, out, err := supervise(t, Config{MaxRecoveries: 0}, nil, lane1Stage1Dies)
	if !errors.Is(err, ErrRecoveryBudget) {
		t.Fatalf("Run: %v, want ErrRecoveryBudget\n%s", err, out)
	}
	if rf, ok := parallel.AsRankFailed(err); !ok || rf.Rank != 1 || rf.Lane != 1 {
		t.Errorf("error %v does not carry the rank failure", err)
	}
	if !strings.Contains(err.Error(), "device failure after 0 recoveries") {
		t.Errorf("error %q does not name the device failure", err)
	}
	if res.Recoveries != 0 || strings.Contains(out, "FAILURE") {
		t.Errorf("a refused recovery was acted on: %+v\n%s", res, out)
	}
}

func TestUnknownDeviceKeepsPool(t *testing.T) {
	phantom := func(context.Context, core.Config, *Supervisor) error {
		return &parallel.RankFailedError{Rank: 9, Lane: -1, Op: "allreduce", Err: errors.New("deadline")}
	}
	sc, res, out, err := supervise(t, Config{MaxRecoveries: 1}, nil, phantom, finish)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, out)
	}
	wantOutput(t, out, "FAILURE: unknown device (rank 9, lane -1)", "pool unchanged", "no snapshot captured yet")
	if strings.Contains(out, "re-planning") {
		t.Errorf("re-planned for a failure no device answers for:\n%s", out)
	}
	if dead := sc.dead(); len(dead) != 0 {
		t.Errorf("dead devices %v, want none", dead)
	}
	if res.Recoveries != 1 || len(sc.built) != 2 || sc.built[1].Lanes != 2 {
		t.Errorf("result %+v, lanes %v: want the attempt rebuilt on the same 2 lanes, budget charged", res, lanesOf(sc.built))
	}
}

func TestDriftReplan(t *testing.T) {
	alertThen := func(next attempt) attempt {
		return func(ctx context.Context, c core.Config, s *Supervisor) error {
			s.onAlert(lane1Slow)
			return next(ctx, c, s)
		}
	}
	// With one lane left the second alert must not cancel the attempt:
	// it checks its context is still live and finishes.
	stillLive := func(ctx context.Context, _ core.Config, _ *Supervisor) error { return ctx.Err() }
	sc, res, out, err := supervise(t, Config{ReplanOnDrift: true}, nil,
		alertThen(untilCanceled), alertThen(stillLive))
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, out)
	}
	wantOutput(t, out,
		"ALERT: straggler [hybrid] lane 1",
		"re-planning on drift: straggler [hybrid] lane 1",
		"quarantined lane 1: [jetson-nano-2 jetson-nano-3]",
		"re-plan (drift): 2 stages × 1 lanes, 2 surviving device(s)")
	if strings.Count(out, "ALERT:") != 2 || strings.Count(out, "re-planning on drift:") != 1 {
		t.Errorf("want two alerts and one drift re-plan:\n%s", out)
	}
	if res.DriftReplans != 1 || res.Recoveries != 0 {
		t.Errorf("result %+v, want 1 drift re-plan, recovery budget untouched", res)
	}
	if len(sc.dead()) != 0 {
		t.Errorf("a slow lane was declared dead: %v", sc.dead())
	}
	if len(sc.built) != 2 || sc.built[1].Lanes != 1 {
		t.Errorf("attempts built with lanes %v, want 2 then 1", lanesOf(sc.built))
	}

	// Without ReplanOnDrift the same alert is printed and nothing else.
	_, res, out, err = supervise(t, Config{}, nil, alertThen(stillLive))
	if err != nil || res.DriftReplans != 0 || !strings.Contains(out, "ALERT:") {
		t.Errorf("alert without ReplanOnDrift: err %v, %+v\n%s", err, res, out)
	}
}

// TestDriftTwiceOnOneLaneQuarantinesItsDevices: on 3 lanes, lane 1
// drifts in two attempts. Each quarantine names the devices lane 1 runs
// on in that attempt, so the second names the survivors that took the
// lane over, and 2 devices are left.
func TestDriftTwiceOnOneLaneQuarantinesItsDevices(t *testing.T) {
	drift := func(ctx context.Context, c core.Config, s *Supervisor) error {
		s.onAlert(lane1Slow)
		return untilCanceled(ctx, c, s)
	}
	cfg := Config{ReplanOnDrift: true}
	cfg.Core.Lanes = 3
	sc, res, out, err := supervise(t, cfg, nil, drift, drift, finish)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, out)
	}
	wantOutput(t, out,
		"quarantined lane 1: [jetson-nano-2 jetson-nano-3]",
		"re-plan (drift): 2 stages × 2 lanes, 4 surviving device(s)",
		"quarantined lane 1: [jetson-nano-4 jetson-nano-5]",
		"re-plan (drift): 2 stages × 1 lanes, 2 surviving device(s)")
	want := []string{"jetson-nano-2", "jetson-nano-3", "jetson-nano-4", "jetson-nano-5"}
	if q := sc.quarantined(); res.DriftReplans != 2 || !slices.Equal(q, want) {
		t.Errorf("result %+v, quarantined %v: want 2 drift re-plans and %v", res, q, want)
	}
}

// TestFailureAfterQuarantineBlamesASurvivor: drift quarantined lane 0,
// so the next attempt's lane 0 runs on devices 2 and 3; its stage 1
// failing is device 3 dying, not quarantined device 1.
func TestFailureAfterQuarantineBlamesASurvivor(t *testing.T) {
	lane0Slow := lane1Slow
	lane0Slow.Lane = 0
	drift := func(ctx context.Context, c core.Config, s *Supervisor) error {
		s.onAlert(lane0Slow)
		return untilCanceled(ctx, c, s)
	}
	lane0Stage1Dies := func(context.Context, core.Config, *Supervisor) error {
		return &parallel.RankFailedError{Rank: 1, Lane: 0, Op: "recv f3", Err: errors.New("deadline")}
	}
	sc, _, out, err := supervise(t, Config{ReplanOnDrift: true, MaxRecoveries: 1}, nil, drift, lane0Stage1Dies, finish)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, out)
	}
	wantOutput(t, out, "FAILURE: device jetson-nano-3 detected dead", "re-planning on 1 surviving device(s): [jetson-nano-2]")
	if d, q := sc.dead(), sc.quarantined(); !slices.Equal(d, []string{"jetson-nano-3"}) || !slices.Equal(q, []string{"jetson-nano-0", "jetson-nano-1"}) {
		t.Errorf("dead %v, quarantined %v: want jetson-nano-3 dead and lane 0 still quarantined", d, q)
	}
}

func TestFailureSupersedesDrift(t *testing.T) {
	both := func(ctx context.Context, c core.Config, s *Supervisor) error {
		s.onAlert(lane1Slow)
		return lane1Stage1Dies(ctx, c, s)
	}
	sc, res, out, err := supervise(t, Config{ReplanOnDrift: true, MaxRecoveries: 1}, nil, both, finish)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, out)
	}
	wantOutput(t, out, "FAILURE: device jetson-nano-3", "re-planning on 3 surviving device(s)")
	if strings.Contains(out, "re-planning on drift") || len(sc.quarantined()) != 0 {
		t.Errorf("the drift request was acted on beside the failure:\n%s", out)
	}
	if res.Recoveries != 1 || res.DriftReplans != 0 {
		t.Errorf("result %+v, want it counted as a failure", res)
	}
}

func TestLateRequestIgnored(t *testing.T) {
	// The request wins the guard and cancels the context, but training
	// had already got to its end.
	lastStep := func(_ context.Context, _ core.Config, s *Supervisor) error {
		s.onAlert(lane1Slow)
		return nil
	}
	sc, res, out, err := supervise(t, Config{ReplanOnDrift: true}, nil, lastStep)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, out)
	}
	if len(sc.built) != 1 || res.DriftReplans != 0 || res.Loss != 0.25 || len(sc.quarantined()) != 0 {
		t.Errorf("a request after the finish was acted on: %+v\n%s", res, out)
	}
}

func TestOtherErrorsReturned(t *testing.T) {
	boom := errors.New("boom")
	_, _, out, err := supervise(t, Config{MaxRecoveries: 3}, nil,
		func(context.Context, core.Config, *Supervisor) error { return boom })
	if err != boom {
		t.Fatalf("Run: %v, want the attempt's own error\n%s", err, out)
	}
}

func TestFleetDrainReplan(t *testing.T) {
	cfg := Config{Drain: &Drain{Device: 3}}
	cfg.Core.SnapshotEvery = 1
	sc, res, out, err := supervise(t, cfg, nil, snapshotThen(0, 2, untilCanceled), finish)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, out)
	}
	wantOutput(t, out,
		"re-planning on fleet drain: 3 surviving device(s): [jetson-nano-0 jetson-nano-1 jetson-nano-2]",
		"re-plan (fleet): 2 stages × 1 lanes, 3 surviving device(s)",
		"recovering from snapshot: epoch 0, step 2",
		"fleet drain of jetson-nano-3 complete",
		"fleet: 1 drain re-plan(s)")
	if res.FleetReplans != 1 || res.Recoveries != 0 || sc.built[1].Lanes != 1 {
		t.Errorf("result %+v, lanes %v", res, lanesOf(sc.built))
	}
	if q := sc.quarantined(); len(q) != 1 || q[0] != "jetson-nano-3" {
		t.Errorf("quarantined %v, want [jetson-nano-3]", q)
	}
}

// TestDrainOutlivedByTraining is the regression test for a drain that
// loses the race with the end of training: Run used to sit out the
// drain's timer and then report a re-plan that never happened.
func TestDrainOutlivedByTraining(t *testing.T) {
	for name, cfg := range map[string]Config{
		"waiting out its delay":       {Drain: &Drain{Device: 3, Delay: time.Hour}},
		"waiting for a first capture": {Drain: &Drain{Device: 3}, Core: core.Config{SnapshotEvery: 1}},
	} {
		began := time.Now()
		sc, res, out, err := supervise(t, cfg, nil, finish)
		if err != nil {
			t.Fatalf("%s: Run: %v\n%s", name, err, out)
		}
		if took := time.Since(began); took > time.Second {
			t.Errorf("%s: Run took %v after training had finished", name, took)
		}
		wantOutput(t, out, "fleet drain of jetson-nano-3 skipped: training finished first", "fleet: 0 drain re-plan(s)")
		if res.FleetReplans != 0 || len(sc.quarantined()) != 0 {
			t.Errorf("%s: a skipped drain sidelined a device: %+v %v", name, res, sc.quarantined())
		}
	}
}

// settle trains long enough for a drain released by the attempt's
// snapshot to act, and finishes unless a re-plan request cancels it.
func settle(ctx context.Context, _ core.Config, _ *Supervisor) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(250 * time.Millisecond):
		return nil
	}
}

// drainLeavesPoolAlone checks a drain that must not act: training
// finishes on its second attempt, no fleet re-plan ran, and the
// quarantine list is what the first re-plan left.
func drainLeavesPoolAlone(t *testing.T, sc *script, res Result, out string, err error, quarantined []string) {
	t.Helper()
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, out)
	}
	wantOutput(t, out, "fleet: 0 drain re-plan(s)")
	if strings.Contains(out, "re-planning on fleet drain") || res.FleetReplans != 0 || len(sc.built) != 2 || res.Loss != 0.25 {
		t.Errorf("result %+v, %d attempts: want training finished after one re-plan, no fleet re-plan\n%s", res, len(sc.built), out)
	}
	if q := sc.quarantined(); !slices.Equal(q, quarantined) {
		t.Errorf("quarantined %v, want %v", q, quarantined)
	}
}

// TestDrainOfSidelinedDevice is the regression test for a drain of a
// device drift had already quarantined: it reported a re-plan around the
// device that never happened.
func TestDrainOfSidelinedDevice(t *testing.T) {
	drift := func(ctx context.Context, c core.Config, s *Supervisor) error {
		s.onAlert(lane1Slow)
		return untilCanceled(ctx, c, s)
	}
	cfg := Config{ReplanOnDrift: true, Drain: &Drain{Device: 3}}
	cfg.Core.SnapshotEvery = 1
	sc, res, out, err := supervise(t, cfg, nil, drift, snapshotThen(1, 2, settle))
	drainLeavesPoolAlone(t, sc, res, out, err, []string{"jetson-nano-2", "jetson-nano-3"})
	wantOutput(t, out, "fleet drain of jetson-nano-3: already out of service, nothing to re-plan")
}

// TestDrainRefusedAtStageFloor: drift quarantined lane 1, so draining
// device 1 would leave one device in service for two stages.
func TestDrainRefusedAtStageFloor(t *testing.T) {
	drift := func(ctx context.Context, c core.Config, s *Supervisor) error {
		s.onAlert(lane1Slow)
		return untilCanceled(ctx, c, s)
	}
	cfg := Config{ReplanOnDrift: true, Drain: &Drain{Device: 1}}
	cfg.Core.SnapshotEvery = 1
	sc, res, out, err := supervise(t, cfg, nil, drift, snapshotThen(1, 2, settle))
	drainLeavesPoolAlone(t, sc, res, out, err, []string{"jetson-nano-2", "jetson-nano-3"})
	wantOutput(t, out, "fleet drain of jetson-nano-1 refused: stage 1 would have no device in service")
}

// TestDrainAfterFailureUsesSpare: device 3 is dead and the attempt runs
// 2 stages × 1 lane on devices 0 and 1; device 2 is in service, so a
// drain of device 1 goes ahead and 2 devices are left.
func TestDrainAfterFailureUsesSpare(t *testing.T) {
	cfg := Config{MaxRecoveries: 1, Drain: &Drain{Device: 1}}
	cfg.Core.SnapshotEvery = 1
	sc, res, out, err := supervise(t, cfg, nil, lane1Stage1Dies, snapshotThen(1, 2, untilCanceled), finish)
	if err != nil {
		t.Fatalf("Run: %v\n%s", err, out)
	}
	wantOutput(t, out,
		"re-planning on fleet drain: 2 surviving device(s): [jetson-nano-0 jetson-nano-2]",
		"fleet drain of jetson-nano-1 complete")
	if res.FleetReplans != 1 || len(sc.built) != 3 || !slices.Equal(sc.quarantined(), []string{"jetson-nano-1"}) {
		t.Errorf("result %+v, %d attempts, quarantined %v", res, len(sc.built), sc.quarantined())
	}
}

func TestNewRejectsBadInjection(t *testing.T) {
	for name, cfg := range map[string]Config{
		"crash device": {Crash: &Crash{Device: 4, Phase: "hybrid"}},
		"crash phase":  {Crash: &Crash{Device: 1, Phase: "nonsense"}},
		"slow lane":    {Slow: &Slow{Lane: 2}},
		"drain device": {Drain: &Drain{Device: 4}},
		"resume":       {Resume: true},
	} {
		cfg.Core.Stages, cfg.Core.Lanes, cfg.Pool, cfg.Out = 2, 2, cluster.Nanos(4), &strings.Builder{}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted it", name)
		}
	}
}

// TestAttributeDevice pins the failure-attribution rules: a failure
// names a device of the attempt's list, and one outside it names none
// (the old behavior blamed device 0).
func TestAttributeDevice(t *testing.T) {
	pool := cluster.Nanos(6)
	survivors := cluster.Cluster{Devices: []cluster.DeviceSpec{pool.Devices[0], pool.Devices[1], pool.Devices[4], pool.Devices[5]}}
	cases := []struct {
		rank, lane int
		devices    cluster.Cluster
		want       string // "" when no device answers for it
	}{
		{rank: 1, lane: 0, devices: pool, want: "jetson-nano-1"},      // lane 0, stage 1
		{rank: 0, lane: 1, devices: pool, want: "jetson-nano-2"},      // lane 1, stage 0
		{rank: 3, lane: -1, devices: pool, want: "jetson-nano-3"},     // DP rank
		{rank: 0, lane: 1, devices: survivors, want: "jetson-nano-4"}, // lane 1 after lane 1 was sidelined
		{rank: 3, lane: -1, devices: survivors, want: "jetson-nano-5"},
		{rank: 9, lane: -1, devices: pool},     // out of range
		{rank: 1, lane: 2, devices: survivors}, // phantom lane
		{rank: -2, lane: -1, devices: pool},    // negative rank
	}
	for _, tc := range cases {
		rf := &parallel.RankFailedError{Rank: tc.rank, Lane: tc.lane, Op: "op", Err: fmt.Errorf("x")}
		dev, known := attributeDevice(rf, 2, tc.devices)
		if known != (tc.want != "") || dev.Name != tc.want {
			t.Errorf("attributeDevice(rank=%d lane=%d) on %v = (%q, %v), want %q",
				tc.rank, tc.lane, deviceNames(tc.devices), dev.Name, known, tc.want)
		}
	}
}

// TestReplanGuardSingleWinner is the regression test for the
// double-re-plan bug: when many triggers fire concurrently within one
// attempt — a liveness failure racing a drift alert, or several alerts
// at once — exactly one request may win, and the attempt must be
// canceled exactly once.
func TestReplanGuardSingleWinner(t *testing.T) {
	var g replanGuard
	for attempt := 0; attempt < 3; attempt++ {
		cancels := 0
		g.arm(func() { cancels++ })

		const callers = 16
		wins := make(chan string, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				trigger := "drift"
				if i%2 == 0 {
					trigger = "failure"
				}
				if g.request(trigger, health.Alert{Lane: i}) {
					wins <- trigger
				}
			}()
		}
		wg.Wait()
		close(wins)

		var winners []string
		for w := range wins {
			winners = append(winners, w)
		}
		if len(winners) != 1 {
			t.Fatalf("attempt %d: %d winners (%v), want exactly 1", attempt, len(winners), winners)
		}
		if cancels != 1 {
			t.Fatalf("attempt %d: attempt canceled %d times, want exactly 1", attempt, cancels)
		}
		trigger, _ := g.take()
		if trigger != winners[0] {
			t.Fatalf("attempt %d: take() = %q, want the winner %q", attempt, trigger, winners[0])
		}
		if trigger, _ := g.take(); trigger != "" {
			t.Fatalf("attempt %d: second take() = %q, want empty", attempt, trigger)
		}
	}
}
