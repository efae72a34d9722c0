package cluster

import (
	"sort"
	"sync"
	"time"

	"pac/internal/health"
)

// Liveness tracks device heartbeats for one pool. A device is alive
// while its last heartbeat is younger than the TTL; a device that goes
// quiet — or is explicitly reported dead by an engine's
// RankFailedError — drops out of the surviving set, which the
// supervisor feeds back into the planner to re-plan around the loss.
type Liveness struct {
	mu         sync.Mutex
	ttl        time.Duration
	now        func() time.Time
	beats      map[string]time.Time
	dead       map[string]bool
	quarantine map[string]bool
}

// NewLiveness builds a tracker with the given heartbeat TTL.
func NewLiveness(ttl time.Duration) *Liveness {
	return &Liveness{ttl: ttl, now: time.Now, beats: map[string]time.Time{},
		dead: map[string]bool{}, quarantine: map[string]bool{}}
}

// SetClock overrides the time source (tests).
func (l *Liveness) SetClock(now func() time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now = now
}

// Heartbeat records a sign of life from the named device. A heartbeat
// never resurrects a device that was declared dead or quarantined:
// both marks last as long as the tracker. This closes the resurrection
// hazard: a zombie process (or a drained device whose agent keeps
// running) can beat indefinitely, and silently returning it to the
// alive set would reinsert it into the next plan behind the
// supervisor's back.
func (l *Liveness) Heartbeat(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.beats[name] = l.now()
}

// MarkDead declares a device failed immediately, regardless of its
// heartbeat age — the path taken when an engine detects the failure
// first (recv deadline expired on that rank).
func (l *Liveness) MarkDead(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.dead[name] = true
	health.Flight().Record("dead", -1, -1, name, 0)
}

// Quarantine sidelines a device the health monitor flagged as a
// straggler: it is excluded from Survivors (and thus from the next
// plan) but is not dead — it still heartbeats, and crucially a
// heartbeat does NOT lift quarantine; slow is not the same fault as
// silent.
func (l *Liveness) Quarantine(name string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.quarantine[name] = true
	health.Flight().Record("quarantine", -1, -1, name, 0)
}

// Quarantined returns the sorted names currently sidelined.
func (l *Liveness) Quarantined() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, 0, len(l.quarantine))
	for name := range l.quarantine {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Alive reports whether the device has a fresh heartbeat and has not
// been declared dead.
func (l *Liveness) Alive(name string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.aliveLocked(name)
}

func (l *Liveness) aliveLocked(name string) bool {
	if l.dead[name] || l.quarantine[name] {
		return false
	}
	last, ok := l.beats[name]
	if !ok {
		return false
	}
	return l.now().Sub(last) < l.ttl
}

// Survivors filters a cluster down to its alive devices, preserving
// order — the device set handed back to the planner after a failure.
// Devices sharing a name share a fate: liveness is tracked per name, so
// duplicates are all kept or all dropped together.
func (l *Liveness) Survivors(c Cluster) Cluster {
	out := Cluster{Devices: make([]DeviceSpec, 0, len(c.Devices))}
	for _, d := range c.Devices {
		if l.Alive(d.Name) {
			out.Devices = append(out.Devices, d)
		}
	}
	return out
}
