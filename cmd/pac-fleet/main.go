// Command pac-fleet plans and drives goal-state fleet operations:
// rolling adapter upgrades, maintenance drains, and rejoins — with
// safety invariants, a crash-resumable journal, and zero downtime.
//
// Usage:
//
//	pac-fleet -goal goal.json -state state.json [-plan | -status]
//	pac-fleet -sim [-replicas N] [-groups N] [-min-replicas N] [-to V]
//	          [-fault-seed S] [-fault-rate R] [-crash-after-steps K]
//	          [-journal FILE] [-report FILE]
//	          [-load-qps Q] [-load-duration D] [-load-seed S]
//	          [-flight-size N] [-flight-out FILE]
//
// Offline mode takes a GoalSpec and an Observed snapshot as JSON files:
// -plan prints the ordered step plan Diff would execute; -status
// summarizes the observed fleet against the goal (in-service counts per
// group, degraded groups, converged or not). Nothing is actuated.
//
// -sim runs the full orchestrator against an in-process serving fleet:
// -groups stage groups × -replicas tiny serve replicas at version v1,
// rolled to -to while respecting the -min-replicas floor. -fault-rate
// injects seeded transient faults into Swap/Snapshot steps (bounded per
// step so retries always win); -crash-after-steps kills the first
// executor after K completed steps and resumes with a fresh one from
// the -journal — the crash-recovery drill. -load-qps replays a
// concurrent synthesized classify trace against the rolling fleet; the
// run fails if any request errors or is canceled. -report writes a
// machine-readable outcome (converged, invariant violations, repeated
// steps, resumed skips, load counts) the CI chaos smoke gates on.
//
// Example:
//
//	pac-fleet -sim -replicas 3 -groups 2 -min-replicas 2 -to v2 \
//	          -fault-seed 42 -fault-rate 0.5 -crash-after-steps 6 \
//	          -journal rollout.pacj -load-qps 300 -report fleet.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"time"

	"pac/internal/fleet"
	"pac/internal/health"
	"pac/internal/loadgen"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pac-fleet: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pac-fleet", flag.ExitOnError)
	planOnly := fs.Bool("plan", false, "print the plan and exit without actuating")
	status := fs.Bool("status", false, "summarize observed state against the goal (offline mode)")
	goalPath := fs.String("goal", "", "GoalSpec JSON file (offline mode)")
	statePath := fs.String("state", "", "Observed state JSON file (offline mode)")
	sim := fs.Bool("sim", false, "run the orchestrator against an in-process serving fleet")
	replicas := fs.Int("replicas", 3, "replicas per stage group (sim)")
	groups := fs.Int("groups", 2, "stage groups (sim)")
	minReplicas := fs.Int("min-replicas", 2, "per-group in-service floor (sim)")
	to := fs.String("to", "v2", "target adapter version of the rolling upgrade (sim)")
	faultSeed := fs.Int64("fault-seed", 1, "fault injection seed (sim)")
	faultRate := fs.Float64("fault-rate", 0, "transient fault probability per Swap/Snapshot attempt (sim)")
	crashAfter := fs.Int("crash-after-steps", 0, "crash the orchestrator after K completed steps, then resume (sim)")
	journalPath := fs.String("journal", "", "resume journal file (sim; required with -crash-after-steps)")
	report := fs.String("report", "", "write the machine-readable outcome JSON to FILE (sim)")
	loadQPS := fs.Float64("load-qps", 0, "concurrent classify load in requests/sec (sim; 0 disables)")
	loadDur := fs.Duration("load-duration", 1200*time.Millisecond, "concurrent load trace duration (sim)")
	loadSeed := fs.Int64("load-seed", 7, "concurrent load trace seed (sim)")
	flightSize := fs.Int("flight-size", 0, "enable a flight recorder of N events (sim)")
	flightOut := fs.String("flight-out", "", "dump the flight recorder JSON to FILE at exit (sim)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *sim {
		return runSim(out, simConfig{
			replicas: *replicas, groups: *groups, minReplicas: *minReplicas,
			target: *to, faultSeed: *faultSeed, faultRate: *faultRate,
			crashAfter: *crashAfter, journalPath: *journalPath,
			report: *report, planOnly: *planOnly,
			loadQPS: *loadQPS, loadDur: *loadDur, loadSeed: *loadSeed,
			flightSize: *flightSize, flightOut: *flightOut,
		})
	}

	if *goalPath == "" || *statePath == "" {
		return fmt.Errorf("offline mode needs -goal and -state (or use -sim)")
	}
	goal, obs, err := loadGoalState(*goalPath, *statePath)
	if err != nil {
		return err
	}
	plan, err := fleet.Diff(goal, obs)
	if err != nil {
		return err
	}
	if *status {
		printStatus(out, goal, obs, plan)
		return nil
	}
	// Offline mode never actuates: with or without -plan, the plan is
	// the output.
	fmt.Fprintln(out, plan.String())
	if !plan.Empty() {
		fmt.Fprintf(out, "plan fingerprint %016x: %d step(s) in %d wave(s)\n",
			plan.Fingerprint, len(plan.Steps), len(plan.Waves()))
	}
	return nil
}

func loadGoalState(goalPath, statePath string) (fleet.GoalSpec, fleet.Observed, error) {
	var goal fleet.GoalSpec
	var obs fleet.Observed
	blob, err := os.ReadFile(goalPath)
	if err != nil {
		return goal, obs, err
	}
	if err := json.Unmarshal(blob, &goal); err != nil {
		return goal, obs, fmt.Errorf("parse %s: %w", goalPath, err)
	}
	blob, err = os.ReadFile(statePath)
	if err != nil {
		return goal, obs, err
	}
	if err := json.Unmarshal(blob, &obs); err != nil {
		return goal, obs, fmt.Errorf("parse %s: %w", statePath, err)
	}
	return goal, obs, nil
}

func printStatus(out io.Writer, goal fleet.GoalSpec, obs fleet.Observed, plan *fleet.Plan) {
	for _, g := range obs.Groups() {
		gg := goal.GroupGoalFor(g)
		fmt.Fprintf(out, "group %d: %d in-service (floor %d)", g, obs.InServiceInGroup(g), gg.MinReplicas)
		if gg.AdapterVersion != "" {
			fmt.Fprintf(out, ", target %s", gg.AdapterVersion)
		}
		fmt.Fprintln(out)
	}
	if d := obs.DegradedGroups(); len(d) > 0 {
		fmt.Fprintf(out, "degraded groups: %v\n", d)
	}
	if plan.Empty() {
		fmt.Fprintln(out, "converged: observed state matches the goal")
	} else {
		fmt.Fprintf(out, "diverged: %d step(s) pending (run with -plan to list them)\n", len(plan.Steps))
	}
}

// simConfig collects the -sim flags.
type simConfig struct {
	replicas, groups, minReplicas int
	target                        string
	faultSeed                     int64
	faultRate                     float64
	crashAfter                    int
	journalPath                   string
	report                        string
	planOnly                      bool
	loadQPS                       float64
	loadDur                       time.Duration
	loadSeed                      int64
	flightSize                    int
	flightOut                     string
}

// simReport is the machine-readable outcome the CI chaos smoke gates on.
type simReport struct {
	Replicas    int    `json:"replicas"`
	Groups      int    `json:"groups"`
	MinReplicas int    `json:"min_replicas"`
	Target      string `json:"target"`
	Steps       int    `json:"steps"`
	Waves       int    `json:"waves"`
	Fingerprint string `json:"fingerprint"`

	Crashed      bool `json:"crashed"`
	CrashAfter   int  `json:"crash_after,omitempty"`
	ResumedSkips int  `json:"resumed_skips"`

	// RepeatedSteps lists step IDs that applied successfully more than
	// once and Violations lists invariant breaches observed at any
	// transition — both must be empty for the run to pass.
	RepeatedSteps []string `json:"repeated_steps"`
	Violations    []string `json:"violations"`
	Converged     bool     `json:"converged"`

	InjectedFaults int `json:"injected_faults"`

	Load *loadReport `json:"load,omitempty"`
}

type loadReport struct {
	Issued   int64 `json:"issued"`
	OK       int64 `json:"ok"`
	Errors   int64 `json:"errors"`
	Canceled int64 `json:"canceled"`
}

// faultingActuator injects seeded transient faults into Swap/Snapshot
// attempts — at most retry-budget-many per step, so the executor always
// wins eventually — and counts successful applications per step ID.
type faultingActuator struct {
	inner      fleet.Actuator
	rate       float64
	maxPerStep int

	mu       sync.Mutex
	rng      *rand.Rand
	injected map[string]int
	success  map[string]int
}

func (f *faultingActuator) Apply(ctx context.Context, step fleet.Step) error {
	if f.rate > 0 && (step.Kind == fleet.StepSwap || step.Kind == fleet.StepSnapshot) {
		f.mu.Lock()
		inject := f.injected[step.ID] < f.maxPerStep && f.rng.Float64() < f.rate
		if inject {
			f.injected[step.ID]++
		}
		f.mu.Unlock()
		if inject {
			return fmt.Errorf("injected fault on %s", step.ID)
		}
	}
	if err := f.inner.Apply(ctx, step); err != nil {
		return err
	}
	f.mu.Lock()
	f.success[step.ID]++
	f.mu.Unlock()
	return nil
}

func runSim(out io.Writer, cfg simConfig) error {
	if cfg.replicas < 1 || cfg.groups < 1 {
		return fmt.Errorf("-replicas and -groups must be >= 1")
	}
	if cfg.minReplicas >= cfg.replicas {
		return fmt.Errorf("-min-replicas %d leaves no headroom with %d replicas per group", cfg.minReplicas, cfg.replicas)
	}
	if cfg.crashAfter > 0 && cfg.journalPath == "" {
		return fmt.Errorf("-crash-after-steps needs -journal to resume from")
	}
	if cfg.flightSize > 0 {
		health.Enable(cfg.flightSize)
	}

	// Build the in-process serving fleet at v1 — one side network per
	// replica over one frozen backbone, since a roll swaps side-network
	// weights only — and register the target version as perturbed
	// weights.
	rs := fleet.NewReplicaSet()
	mcfg := model.Tiny()
	m := model.New(mcfg)
	var flat []float32
	for g := 0; g < cfg.groups; g++ {
		for i := 0; i < cfg.replicas; i++ {
			srv := serve.NewServer(peft.NewParallel(m, peft.Options{Reduction: 4}), mcfg)
			if flat == nil {
				flat = srv.SnapshotWeights()
			}
			name := fmt.Sprintf("nano-%d-%d", g, i)
			rs.Add(name, g, srv)
			if err := rs.SetVersion(name, "v1"); err != nil {
				return err
			}
		}
	}
	v2 := make([]float32, len(flat))
	for i, w := range flat {
		v2[i] = w + 0.01
	}
	rs.RegisterVersion(cfg.target, v2)

	goal := fleet.GoalSpec{}
	for g := 0; g < cfg.groups; g++ {
		goal.Groups = append(goal.Groups, fleet.GroupGoal{
			Group: g, AdapterVersion: cfg.target, MinReplicas: cfg.minReplicas})
		for i := 0; i < cfg.replicas; i++ {
			goal.Devices = append(goal.Devices, fmt.Sprintf("nano-%d-%d", g, i))
		}
	}
	plan, err := fleet.Diff(goal, rs.Observed())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "sim fleet: %d group(s) x %d replica(s), rolling v1 -> %s (floor %d)\n",
		cfg.groups, cfg.replicas, cfg.target, cfg.minReplicas)
	fmt.Fprintf(out, "plan %016x: %d step(s) in %d wave(s)\n",
		plan.Fingerprint, len(plan.Steps), len(plan.Waves()))
	if cfg.planOnly {
		fmt.Fprint(out, plan.String())
		return nil
	}

	chaos := &faultingActuator{inner: rs, rate: cfg.faultRate, maxPerStep: 2,
		rng: rand.New(rand.NewSource(cfg.faultSeed)), injected: map[string]int{}, success: map[string]int{}}

	// Invariant probe at every step transition of every executor.
	var vioMu sync.Mutex
	var violations []string
	resumedSkips := 0
	probe := func(step fleet.Step, trans string, attempt int, err error) {
		obs := rs.Observed()
		vioMu.Lock()
		defer vioMu.Unlock()
		if trans == fleet.TransSkip {
			resumedSkips++
		}
		if d := obs.DegradedGroups(); len(d) > 1 {
			violations = append(violations, fmt.Sprintf("at %s %s: %d groups degraded", trans, step.ID, len(d)))
		}
		for _, g := range obs.Groups() {
			if n := obs.InServiceInGroup(g); n < cfg.minReplicas {
				violations = append(violations,
					fmt.Sprintf("at %s %s: group %d at %d in-service (floor %d)", trans, step.ID, g, n, cfg.minReplicas))
			}
		}
	}

	// Optional concurrent load against the rolling fleet.
	var loadRes *loadReport
	loadDone := make(chan error, 1)
	if cfg.loadQPS > 0 {
		tr := loadgen.Synthesize(loadgen.SynthConfig{
			Seed: cfg.loadSeed, Users: 8, QPS: cfg.loadQPS, Duration: cfg.loadDur, GenFrac: 0})
		go func() {
			rep, err := loadgen.Run(context.Background(), tr, rs, loadgen.RunOptions{})
			if err != nil {
				loadDone <- err
				return
			}
			loadRes = &loadReport{}
			for _, op := range rep.Ops {
				loadRes.Issued += op.Issued
				loadRes.OK += op.OK
				loadRes.Errors += op.Errors
				loadRes.Canceled += op.Canceled
			}
			loadDone <- nil
		}()
		time.Sleep(50 * time.Millisecond)
	} else {
		loadDone <- nil
	}

	execFor := func(journal *fleet.Journal, onTrans func(fleet.Step, string, int, error)) (*fleet.Executor, error) {
		return fleet.NewExecutor(fleet.ExecConfig{
			Actuator: chaos, Observe: rs.Observed, Goal: goal, Journal: journal,
			Retries: 2, Backoff: 5 * time.Millisecond, StepTimeout: 10 * time.Second,
			OnTransition: onTrans,
		})
	}
	openJournal := func() (*fleet.Journal, error) {
		if cfg.journalPath == "" {
			return nil, nil
		}
		return fleet.OpenJournal(cfg.journalPath)
	}

	crashed := false
	if cfg.crashAfter > 0 {
		j1, err := openJournal()
		if err != nil {
			return err
		}
		ctx1, crash := context.WithCancel(context.Background())
		var mu sync.Mutex
		done := 0
		exec1, err := execFor(j1, func(step fleet.Step, trans string, attempt int, e error) {
			probe(step, trans, attempt, e)
			if trans == fleet.TransDone {
				mu.Lock()
				done++
				if done == cfg.crashAfter {
					crash()
				}
				mu.Unlock()
			}
		})
		if err != nil {
			return err
		}
		err = exec1.Run(ctx1, plan)
		j1.Close()
		crash()
		if err == nil {
			fmt.Fprintf(out, "plan finished before the %d-step crash point; nothing to resume\n", cfg.crashAfter)
		} else {
			crashed = true
			fmt.Fprintf(out, "orchestrator crashed after %d completed step(s): %v\n", done, err)
		}
	}

	if crashed || cfg.crashAfter == 0 {
		j, err := openJournal()
		if err != nil {
			return err
		}
		exec, err := execFor(j, probe)
		if err != nil {
			j.Close()
			return err
		}
		runErr := exec.Run(context.Background(), plan)
		j.Close()
		if runErr != nil {
			return fmt.Errorf("rollout failed: %w", runErr)
		}
	}
	if err := <-loadDone; err != nil {
		return fmt.Errorf("loadgen: %w", err)
	}

	// Outcome.
	rep := simReport{
		Replicas: cfg.replicas, Groups: cfg.groups, MinReplicas: cfg.minReplicas,
		Target: cfg.target, Steps: len(plan.Steps), Waves: len(plan.Waves()),
		Fingerprint:   fmt.Sprintf("%016x", plan.Fingerprint),
		Crashed:       crashed,
		CrashAfter:    cfg.crashAfter,
		ResumedSkips:  resumedSkips,
		RepeatedSteps: []string{},
		Violations:    append([]string{}, violations...),
		Converged:     true,
		Load:          loadRes,
	}
	chaos.mu.Lock()
	for id, n := range chaos.success {
		if n > 1 {
			rep.RepeatedSteps = append(rep.RepeatedSteps, fmt.Sprintf("%s x%d", id, n))
		}
	}
	for _, n := range chaos.injected {
		rep.InjectedFaults += n
	}
	chaos.mu.Unlock()
	for _, d := range rs.Observed().Devices {
		if !d.InService() || d.AdapterVersion != cfg.target {
			rep.Converged = false
		}
	}
	if again, err := fleet.Diff(goal, rs.Observed()); err != nil || !again.Empty() {
		rep.Converged = false
	}

	blob, _ := json.MarshalIndent(rep, "", " ")
	if cfg.report != "" {
		if err := os.WriteFile(cfg.report, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", cfg.report)
	}
	if cfg.flightOut != "" {
		dump, err := health.Flight().Dump()
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.flightOut, dump, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", cfg.flightOut)
	}
	fmt.Fprintf(out, "converged=%v violations=%d repeated=%d resumed_skips=%d injected_faults=%d\n",
		rep.Converged, len(rep.Violations), len(rep.RepeatedSteps), rep.ResumedSkips, rep.InjectedFaults)
	if loadRes != nil {
		fmt.Fprintf(out, "load: %d issued, %d ok, %d errors, %d canceled\n",
			loadRes.Issued, loadRes.OK, loadRes.Errors, loadRes.Canceled)
	}

	switch {
	case !rep.Converged:
		return fmt.Errorf("fleet did not converge to %s", cfg.target)
	case len(rep.Violations) > 0:
		return fmt.Errorf("%d invariant violation(s): %v", len(rep.Violations), rep.Violations)
	case len(rep.RepeatedSteps) > 0:
		return fmt.Errorf("resume repeated step(s): %v", rep.RepeatedSteps)
	case loadRes != nil && (loadRes.Errors > 0 || loadRes.Canceled > 0):
		return fmt.Errorf("load dropped requests: %d errors, %d canceled", loadRes.Errors, loadRes.Canceled)
	}
	return nil
}
