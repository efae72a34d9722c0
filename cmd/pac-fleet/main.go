// Command pac-fleet plans goal-state fleet operations offline: rolling
// adapter upgrades, maintenance drains, and rejoins — ordered into waves
// under the fleet's safety invariants.
//
// Usage:
//
//	pac-fleet -goal goal.json -state state.json [-plan | -status]
//
// It takes a GoalSpec and an Observed snapshot as JSON files: -plan
// prints the ordered step plan Diff would execute; -status summarizes
// the observed fleet against the goal (in-service counts per group,
// degraded groups, converged or not). Nothing is actuated. The same
// planner, executor and journal drive pac-train's -drain-device
// maintenance drain; a single pac-serve swaps adapters with a pointer
// store and needs no rollout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"pac/internal/fleet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pac-fleet: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pac-fleet", flag.ExitOnError)
	fs.Bool("plan", false, "print the ordered step plan (what runs without -status)")
	status := fs.Bool("status", false, "summarize observed state against the goal")
	goalPath := fs.String("goal", "", "GoalSpec JSON file")
	statePath := fs.String("state", "", "Observed state JSON file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *goalPath == "" || *statePath == "" {
		return fmt.Errorf("pac-fleet needs -goal and -state")
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
	// Nothing is actuated: with or without -plan, the plan is the output.
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
