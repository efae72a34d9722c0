package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pac/internal/generate"
	"pac/internal/serve"
	"pac/internal/telemetry"
)

// ErrNoReplica is returned when every replica is out of service — a
// state the safety invariants exist to prevent; seeing it means a floor
// was set to 0 or the fleet lost devices faster than it could re-plan.
var ErrNoReplica = errors.New("fleet: no in-service replica")

// replica is one serving device of a ReplicaSet.
type replica struct {
	name  string
	group int
	srv   *serve.Server

	draining    atomic.Bool
	quarantined atomic.Bool
	inflight    atomic.Int64
	version     atomic.Pointer[string]

	// the snapshot captured by the latest Snapshot step
	mu       sync.Mutex
	lastSnap []float32
}

func (r *replica) available() bool {
	return !r.draining.Load() && !r.quarantined.Load()
}

// ReplicaSet is a pool of serve.Server replicas behind a router that
// only sends requests to in-service members. It is simultaneously the
// fleet's data plane (serve.Backend: requests never see a draining or
// mid-swap replica, so rolling operations are zero-downtime) and its
// actuation surface (fleet.Actuator + Observe for the executor).
type ReplicaSet struct {
	replicas []*replica
	rr       atomic.Uint64

	// versions maps registered adapter version names to flat weights; a
	// Swap whose target is not registered is treated as a checkpoint
	// path and loaded through the server's hot-swap path.
	vmu      sync.Mutex
	versions map[string][]float32

	// Rolling-swap configuration for the Backend SwapCheckpoint path.
	MinReplicas int
	JournalPath string
	lastPlan    atomic.Pointer[Plan]

	reg      *telemetry.Registry
	routed   *telemetry.Counter
	drains   *telemetry.Counter
	rollouts *telemetry.Counter

	// Causal tracing (SetTracer): each routed request records a route
	// span on the router track naming the chosen replica, and the
	// replica's own request/wait/forward spans nest under it.
	tracer   *telemetry.Tracer
	tracePid int
}

// NewReplicaSet builds an empty set; add members with Add.
func NewReplicaSet() *ReplicaSet {
	reg := telemetry.NewRegistry()
	reg.Help("pac_fleet_routed_total", "Requests routed to an in-service replica.")
	reg.Help("pac_fleet_drains_total", "Replica drain steps applied.")
	reg.Help("pac_fleet_rollouts_total", "Orchestrated rolling operations completed.")
	return &ReplicaSet{
		versions:    map[string][]float32{},
		MinReplicas: 1,
		reg:         reg,
		routed:      reg.Counter("pac_fleet_routed_total"),
		drains:      reg.Counter("pac_fleet_drains_total"),
		rollouts:    reg.Counter("pac_fleet_rollouts_total"),
	}
}

// Add registers a replica under a device name and stage group.
func (rs *ReplicaSet) Add(name string, group int, srv *serve.Server) {
	r := &replica{name: name, group: group, srv: srv}
	v := ""
	r.version.Store(&v)
	rs.replicas = append(rs.replicas, r)
}

func (rs *ReplicaSet) find(name string) (*replica, error) {
	for _, r := range rs.replicas {
		if r.name == name {
			return r, nil
		}
	}
	return nil, fmt.Errorf("fleet: unknown replica %q", name)
}

// RegisterVersion names a flat adapter-weight vector so Swap steps can
// install it by version string.
func (rs *ReplicaSet) RegisterVersion(version string, flat []float32) {
	rs.vmu.Lock()
	defer rs.vmu.Unlock()
	rs.versions[version] = flat
}

// SetVersion stamps a replica's current adapter version (e.g. the
// initial load at startup).
func (rs *ReplicaSet) SetVersion(name, version string) error {
	r, err := rs.find(name)
	if err != nil {
		return err
	}
	r.version.Store(&version)
	return nil
}

// pick routes one request: round-robin over in-service replicas. The
// in-flight counter is incremented *before* the availability check, so
// a drain that flips mid-pick still sees this request in the replica's
// in-flight count and its Quiesce step waits for it — the ordering that
// makes draining drop zero requests.
func (rs *ReplicaSet) pick() (*replica, error) {
	n := len(rs.replicas)
	if n == 0 {
		return nil, ErrNoReplica
	}
	// Modulo in uint64 before narrowing: int(counter) % n goes negative
	// once the counter passes 2^31 on 32-bit platforms, and a negative
	// index would panic the serving path.
	start := int(rs.rr.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		r := rs.replicas[(start+i)%n]
		r.inflight.Add(1)
		if r.available() {
			rs.routed.Inc()
			return r, nil
		}
		r.inflight.Add(-1)
	}
	return nil, ErrNoReplica
}

// SetTracer enables route-span tracing on the router track pid (by
// convention telemetry.PidServe; replica servers get their own pids
// via serve.Server.SetTracer).
func (rs *ReplicaSet) SetTracer(tr *telemetry.Tracer, pid int) {
	rs.tracer = tr
	rs.tracePid = pid
	tr.SetProcessName(pid, "fleet router")
}

// routeSpan brackets pick+dispatch for a traced request: the route
// span nests under the incoming X-Pac-Trace context (or roots
// server-side) and the returned ctx makes the replica's spans its
// children. The replica name is stamped once the pick lands.
func (rs *ReplicaSet) routeSpan(ctx context.Context, op string) (context.Context, func(*replica)) {
	if rs.tracer == nil {
		return ctx, func(*replica) {}
	}
	var tc telemetry.TraceContext
	var end func()
	// The chosen replica is stamped into args before end() records the
	// span; ErrNoReplica keeps the "?" marker.
	args := map[string]interface{}{"replica": "?"}
	if parent, ok := telemetry.TraceFrom(ctx); ok {
		tc, end = rs.tracer.SpanTCArgs(parent, "fleet", "route "+op, rs.tracePid, 0, args)
	} else {
		tc, end = rs.tracer.RootSpanTC("fleet", "route "+op, rs.tracePid, 0)
	}
	return telemetry.ContextWithTrace(ctx, tc), func(r *replica) {
		if r != nil {
			args["replica"] = r.name
		}
		end()
	}
}

// ClassifyFor implements serve.Backend (and loadgen.Target) by routing
// to an in-service replica.
func (rs *ReplicaSet) ClassifyFor(ctx context.Context, user int, enc [][]int, lens []int) ([]int, error) {
	ctx, endRoute := rs.routeSpan(ctx, "classify")
	r, err := rs.pick()
	if err != nil {
		endRoute(nil)
		return nil, err
	}
	defer r.inflight.Add(-1)
	defer endRoute(r)
	return r.srv.ClassifyFor(ctx, user, enc, lens)
}

// GenerateFor implements serve.Backend (and loadgen.Target).
func (rs *ReplicaSet) GenerateFor(ctx context.Context, user int, enc [][]int, lens []int, opts generate.Options) ([][]int, error) {
	ctx, endRoute := rs.routeSpan(ctx, "generate")
	r, err := rs.pick()
	if err != nil {
		endRoute(nil)
		return nil, err
	}
	defer r.inflight.Add(-1)
	defer endRoute(r)
	return r.srv.GenerateFor(ctx, user, enc, lens, opts)
}

// Observed implements the executor's state source.
func (rs *ReplicaSet) Observed() Observed {
	obs := Observed{Devices: make([]DeviceState, 0, len(rs.replicas))}
	for _, r := range rs.replicas {
		obs.Devices = append(obs.Devices, DeviceState{
			Name:           r.name,
			Group:          r.group,
			Alive:          true, // in-process replicas cannot die on their own
			Draining:       r.draining.Load(),
			Quarantined:    r.quarantined.Load(),
			AdapterVersion: *r.version.Load(),
		})
	}
	return obs
}

// Apply implements fleet.Actuator against the replica set.
func (rs *ReplicaSet) Apply(ctx context.Context, step Step) error {
	r, err := rs.find(step.Device)
	if err != nil {
		return err
	}
	switch step.Kind {
	case StepDrain:
		r.draining.Store(true)
		if step.Target == "quarantine" {
			r.quarantined.Store(true)
		}
		rs.drains.Inc()
		return nil
	case StepQuiesce:
		// Draining already diverts new requests; wait for the tail of
		// in-flight ones to finish.
		for r.inflight.Load() > 0 {
			select {
			case <-ctx.Done():
				return fmt.Errorf("fleet: quiesce %s: %d request(s) still in flight: %w",
					r.name, r.inflight.Load(), ctx.Err())
			case <-time.After(time.Millisecond):
			}
		}
		return nil
	case StepSnapshot:
		flat := r.srv.SnapshotWeights()
		r.mu.Lock()
		r.lastSnap = flat
		r.mu.Unlock()
		return nil
	case StepSwap:
		rs.vmu.Lock()
		flat, registered := rs.versions[step.Target]
		rs.vmu.Unlock()
		if registered {
			r.srv.UpdateWeights(flat)
		} else if err := r.srv.SwapCheckpoint(step.Target); err != nil {
			return err
		}
		v := step.Target
		r.version.Store(&v)
		return nil
	case StepRejoin:
		r.draining.Store(false)
		r.quarantined.Store(false)
		return nil
	case StepVerify:
		switch step.Target {
		case "quarantine":
			if !r.quarantined.Load() {
				return fmt.Errorf("fleet: verify %s: expected quarantined", r.name)
			}
		case "remove":
			if !r.draining.Load() {
				return fmt.Errorf("fleet: verify %s: expected drained", r.name)
			}
		case "":
			if !r.available() {
				return fmt.Errorf("fleet: verify %s: not in service", r.name)
			}
		default: // a version target: in service and running it
			if !r.available() {
				return fmt.Errorf("fleet: verify %s: not in service", r.name)
			}
			if got := *r.version.Load(); got != step.Target {
				return fmt.Errorf("fleet: verify %s: running %q, want %q", r.name, got, step.Target)
			}
		}
		return nil
	default:
		return fmt.Errorf("fleet: unknown step kind %q", step.Kind)
	}
}

// goalAllAt builds the goal "every replica in service at this version"
// — what the Backend /swap path reconciles toward.
func (rs *ReplicaSet) goalAllAt(version string) GoalSpec {
	goal := GoalSpec{}
	groups := map[int]bool{}
	for _, r := range rs.replicas {
		goal.Devices = append(goal.Devices, r.name)
		if !groups[r.group] {
			groups[r.group] = true
			goal.Groups = append(goal.Groups, GroupGoal{
				Group: r.group, AdapterVersion: version, MinReplicas: rs.MinReplicas})
		}
	}
	return goal
}

// RollTo drives an orchestrated zero-downtime rollout of the given
// version (a registered version name or a checkpoint path) across every
// replica, journaling to JournalPath when set.
func (rs *ReplicaSet) RollTo(ctx context.Context, version string) error {
	goal := rs.goalAllAt(version)
	var journal *Journal
	if rs.JournalPath != "" {
		j, err := OpenJournal(rs.JournalPath)
		if err != nil {
			return err
		}
		journal = j
		defer journal.Close()
	}
	plan, err := Diff(goal, rs.Observed())
	if err != nil {
		return err
	}
	rs.lastPlan.Store(plan)
	err = Reconcile(ctx, goal, ExecConfig{
		Actuator: rs,
		Observe:  rs.Observed,
		Goal:     goal,
		Journal:  journal,
	}, 3)
	if err == nil {
		rs.rollouts.Inc()
	}
	return err
}

// SwapCheckpoint implements serve.Backend: where a single server swaps
// in place, the replica set runs the full orchestrated rolling swap, so
// an HTTP /swap against a fleet is zero-downtime by construction.
func (rs *ReplicaSet) SwapCheckpoint(path string) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	return rs.RollTo(ctx, path)
}

// Stats implements serve.Backend: fleet totals plus per-replica detail.
func (rs *ReplicaSet) Stats() map[string]interface{} {
	var served, canceled, swaps int64
	perReplica := make([]map[string]interface{}, 0, len(rs.replicas))
	for _, r := range rs.replicas {
		served += r.srv.Served()
		canceled += r.srv.Canceled()
		swaps += r.srv.Swaps()
		perReplica = append(perReplica, map[string]interface{}{
			"name":     r.name,
			"group":    r.group,
			"served":   r.srv.Served(),
			"canceled": r.srv.Canceled(),
			"version":  *r.version.Load(),
			"draining": r.draining.Load(),
		})
	}
	return map[string]interface{}{
		"served":   served,
		"canceled": canceled,
		"swaps":    swaps,
		"routed":   rs.routed.Value(),
		"replicas": perReplica,
	}
}

// WriteMetrics implements serve.Backend with the fleet-level registry
// (per-replica registries stay on each replica to avoid family
// collisions in one exposition).
func (rs *ReplicaSet) WriteMetrics(w io.Writer) { rs.reg.WritePrometheus(w) }

// FleetStatus implements serve.FleetStatuser: the live observed state
// plus the most recent rollout plan.
func (rs *ReplicaSet) FleetStatus() map[string]interface{} {
	out := map[string]interface{}{
		"observed": rs.Observed(),
		"rollouts": rs.rollouts.Value(),
		"drains":   rs.drains.Value(),
	}
	if p := rs.lastPlan.Load(); p != nil {
		out["last_plan"] = p
	}
	return out
}
