// Package fleet is the goal-state orchestrator for intentional topology
// changes: rolling adapter/backbone upgrades, draining a device for
// maintenance, resizing a stage group — under safety invariants, where
// the rest of the system only *reacts* (liveness loss, drift
// quarantine). Its consumers are pac-train's maintenance drain (through
// internal/supervisor) and pac-fleet's offline planner; a single
// pac-serve needs none of it, since its adapter swap is a pointer store.
//
// The model is declarative: a GoalSpec states the desired fleet (member
// devices, maintenance quarantine, per-stage-group adapter version and
// min-replica floor); Diff compares it against the Observed state and
// emits an ordered, partially-parallelizable Plan of typed steps
// (Snapshot, Drain, Quiesce, Swap, Rejoin, Verify). An Executor drives
// the plan with per-step timeouts, bounded retry, and safety invariants
// re-checked against *live* state before every step: at most one stage
// group degraded at a time, never below a group's min-replica floor,
// never drain the last in-service holder of a hot adapter. Invariant
// violations abort with a typed error and trigger forward-only
// re-planning (Reconcile) — the orchestrator never rolls back into an
// unknown state.
//
// Every step transition is appended to a CRC'd on-disk journal (the
// same torn-write discipline as checkpoints) and to the health flight
// recorder under the "fleet" kind, so a crashed orchestrator resumes
// mid-plan without repeating completed steps: the control plane dies
// and restarts, the devices keep running.
package fleet

import (
	"fmt"
	"sort"
)

// GroupGoal is the desired state of one stage group.
type GroupGoal struct {
	// Group indexes the stage group the goal applies to.
	Group int `json:"group"`
	// AdapterVersion is the adapter build every in-service device of the
	// group must run; empty means "leave whatever is running".
	AdapterVersion string `json:"adapter_version,omitempty"`
	// MinReplicas is the floor of in-service devices the group must keep
	// at every instant of a rollout (≥1 for a serving group).
	MinReplicas int `json:"min_replicas"`
}

// GoalSpec is the desired fleet state a plan drives toward.
type GoalSpec struct {
	// Devices lists the desired pool members by name. A present device
	// missing from the list is drained out of service; a listed device
	// currently out of service is rejoined.
	Devices []string `json:"devices"`
	// Quarantine names devices to sideline for maintenance: drained and
	// kept out of service but still fleet members.
	Quarantine []string `json:"quarantine,omitempty"`
	// Groups carries per-group version targets and replica floors.
	Groups []GroupGoal `json:"groups"`
}

// GroupGoalFor returns the goal for a group (zero value when unset).
func (g GoalSpec) GroupGoalFor(group int) GroupGoal {
	for _, gg := range g.Groups {
		if gg.Group == group {
			return gg
		}
	}
	return GroupGoal{Group: group}
}

// wantsMember reports whether the goal keeps the named device in the
// fleet (possibly quarantined).
func (g GoalSpec) wantsMember(name string) bool {
	for _, n := range g.Devices {
		if n == name {
			return true
		}
	}
	return false
}

// wantsQuarantine reports whether the goal sidelines the named device.
func (g GoalSpec) wantsQuarantine(name string) bool {
	for _, n := range g.Quarantine {
		if n == name {
			return true
		}
	}
	return false
}

// Validate rejects goals no plan can satisfy.
func (g GoalSpec) Validate() error {
	if len(g.Devices) == 0 {
		return fmt.Errorf("fleet: goal lists no devices")
	}
	seen := make(map[string]bool, len(g.Devices))
	for _, n := range g.Devices {
		if seen[n] {
			return fmt.Errorf("fleet: goal lists device %q twice", n)
		}
		seen[n] = true
	}
	for _, n := range g.Quarantine {
		if !seen[n] {
			return fmt.Errorf("fleet: quarantine names %q which is not a goal member", n)
		}
	}
	for _, gg := range g.Groups {
		if gg.MinReplicas < 0 {
			return fmt.Errorf("fleet: group %d has negative min_replicas", gg.Group)
		}
	}
	return nil
}

// DeviceState is one device as the orchestrator observes it.
type DeviceState struct {
	Name  string `json:"name"`
	Group int    `json:"group"`
	// Alive mirrors the liveness tracker: the device heartbeats and has
	// not been declared dead.
	Alive bool `json:"alive"`
	// Draining means the router no longer sends the device new work (it
	// may still be finishing in-flight requests).
	Draining bool `json:"draining,omitempty"`
	// Quarantined means the device is sidelined (maintenance or drift).
	Quarantined bool `json:"quarantined,omitempty"`
	// AdapterVersion is the adapter build the device currently runs.
	AdapterVersion string `json:"adapter_version,omitempty"`
	// HotAdapters are per-user adapters this device holds warm; the
	// last-holder invariant refuses to drain the only in-service copy.
	HotAdapters []string `json:"hot_adapters,omitempty"`
}

// InService reports whether the device is taking new work.
func (d DeviceState) InService() bool {
	return d.Alive && !d.Draining && !d.Quarantined
}

// Observed is the fleet state a plan is computed from and invariants
// are checked against.
type Observed struct {
	Devices []DeviceState `json:"devices"`
}

// Device returns the named device's state (ok=false when unknown).
func (o Observed) Device(name string) (DeviceState, bool) {
	for _, d := range o.Devices {
		if d.Name == name {
			return d, true
		}
	}
	return DeviceState{}, false
}

// Groups returns the sorted distinct group indices present.
func (o Observed) Groups() []int {
	set := map[int]bool{}
	for _, d := range o.Devices {
		set[d.Group] = true
	}
	out := make([]int, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

// InServiceInGroup counts devices of the group currently taking work.
func (o Observed) InServiceInGroup(group int) int {
	n := 0
	for _, d := range o.Devices {
		if d.Group == group && d.InService() {
			n++
		}
	}
	return n
}

// DegradedGroups returns the sorted groups with at least one member out
// of service (draining, quarantined, or dead) — raw status, useful for
// reporting. The single-group-degraded invariant uses the goal-relative
// degradedGroups instead, which excludes devices the goal itself
// sidelines and dead devices no step can repair.
func (o Observed) DegradedGroups() []int {
	set := map[int]bool{}
	for _, d := range o.Devices {
		if !d.InService() {
			set[d.Group] = true
		}
	}
	out := make([]int, 0, len(set))
	for g := range set {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}
