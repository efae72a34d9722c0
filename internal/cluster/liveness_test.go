package cluster

import (
	"testing"
	"time"
)

func TestLivenessHeartbeatExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewLiveness(30 * time.Second)
	l.SetClock(func() time.Time { return now })

	l.Heartbeat("a")
	l.Heartbeat("b")
	if !l.Alive("a") || !l.Alive("b") {
		t.Fatal("fresh heartbeats not alive")
	}
	if l.Alive("unknown") {
		t.Fatal("never-seen device reported alive")
	}

	// a keeps beating; b goes quiet past the TTL.
	now = now.Add(20 * time.Second)
	l.Heartbeat("a")
	now = now.Add(15 * time.Second)
	if !l.Alive("a") {
		t.Fatal("a expired despite recent heartbeat")
	}
	if l.Alive("b") {
		t.Fatal("b alive 35s after its last heartbeat (ttl 30s)")
	}
}

func TestLivenessMarkDeadSurvivesHeartbeat(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewLiveness(time.Minute)
	l.SetClock(func() time.Time { return now })

	l.Heartbeat("a")
	l.MarkDead("a")
	if l.Alive("a") {
		t.Fatal("MarkDead ignored despite fresh heartbeat")
	}
	// The resurrection hazard: a zombie keeps heartbeating after the
	// orchestrator declared it dead. The beat must NOT revive it.
	l.Heartbeat("a")
	if l.Alive("a") {
		t.Fatal("heartbeat silently revived a marked-dead device")
	}
}

// TestLivenessInterleavings walks the heartbeat/quarantine/mark-dead
// state machine through the orders a real rollout produces.
func TestLivenessInterleavings(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewLiveness(time.Minute)
	l.SetClock(func() time.Time { return now })

	// Quarantine then dead then beats: stays out.
	l.Heartbeat("a")
	l.Quarantine("a")
	l.MarkDead("a")
	l.Heartbeat("a")
	if l.Alive("a") {
		t.Fatal("quarantined+dead device revived by heartbeat")
	}

	// A mark outlasts the heartbeat it was set beside: once the beat
	// has expired too, a fresh one still does not bring the device back.
	l.Heartbeat("b")
	l.MarkDead("b")
	now = now.Add(2 * time.Minute)
	l.Heartbeat("b")
	if l.Alive("b") {
		t.Fatal("marked-dead device revived by a heartbeat after its TTL ran out")
	}

	// Beat → quarantine → beat: the quarantine holds regardless of
	// beat history.
	l.Heartbeat("c")
	l.Heartbeat("c")
	l.Quarantine("c")
	l.Heartbeat("c")
	if l.Alive("c") {
		t.Fatal("quarantine lifted by heartbeat")
	}

	// Dead from silence (TTL expiry) is the one path a heartbeat may
	// repair: the device was never *declared* dead, it just went quiet.
	l.Heartbeat("d")
	now = now.Add(2 * time.Minute)
	if l.Alive("d") {
		t.Fatal("d alive past TTL")
	}
	l.Heartbeat("d")
	if !l.Alive("d") {
		t.Fatal("fresh heartbeat must repair TTL-expired (never declared dead) device")
	}
}

func TestLivenessSurvivorsPreservesOrder(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewLiveness(time.Minute)
	l.SetClock(func() time.Time { return now })

	pool := Nanos(4)
	for _, d := range pool.Devices {
		l.Heartbeat(d.Name)
	}
	l.MarkDead(pool.Devices[1].Name)

	s := l.Survivors(pool)
	if s.Size() != 3 {
		t.Fatalf("survivors: %d, want 3", s.Size())
	}
	want := []string{pool.Devices[0].Name, pool.Devices[2].Name, pool.Devices[3].Name}
	for i, d := range s.Devices {
		if d.Name != want[i] {
			t.Fatalf("survivor %d = %s, want %s (order not preserved)", i, d.Name, want[i])
		}
	}
}

func TestSurvivorsEdgeCases(t *testing.T) {
	now := time.Unix(1000, 0)
	l := NewLiveness(time.Minute)
	l.SetClock(func() time.Time { return now })

	// Unknown devices (never heartbeat) are not survivors.
	pool := Nanos(3)
	if s := l.Survivors(pool); s.Size() != 0 {
		t.Fatalf("never-seen devices survived: %d", s.Size())
	}

	// Emptying: all dead ⇒ empty survivors, original intact.
	for _, d := range pool.Devices {
		l.Heartbeat(d.Name)
		l.MarkDead(d.Name)
	}
	if s := l.Survivors(pool); s.Size() != 0 {
		t.Fatalf("dead devices survived: %d", s.Size())
	}
	if pool.Size() != 3 {
		t.Fatal("Survivors mutated the input cluster")
	}

	// Duplicate names share liveness: both copies survive or neither.
	dup := Cluster{Devices: []DeviceSpec{{Name: "x"}, {Name: "x"}, {Name: "y"}}}
	l2 := NewLiveness(time.Minute)
	l2.SetClock(func() time.Time { return now })
	l2.Heartbeat("x")
	l2.Heartbeat("y")
	if s := l2.Survivors(dup); s.Size() != 3 {
		t.Fatalf("duplicate-name survivors: %d, want 3", s.Size())
	}
	l2.MarkDead("x")
	s := l2.Survivors(dup)
	if s.Size() != 1 || s.Devices[0].Name != "y" {
		t.Fatalf("duplicate-name death: %v", s.Devices)
	}
}

func TestQuarantineSemantics(t *testing.T) {
	l := NewLiveness(time.Minute)
	now := time.Unix(1000, 0)
	l.SetClock(func() time.Time { return now })

	pool := Nanos(4)
	for _, d := range pool.Devices {
		l.Heartbeat(d.Name)
	}
	slow := pool.Devices[2].Name
	l.Quarantine(slow)

	if l.Alive(slow) {
		t.Fatal("quarantined device must not count as alive")
	}
	if s := l.Survivors(pool); s.Size() != 3 {
		t.Fatalf("survivors: %d, want 3", s.Size())
	}
	if q := l.Quarantined(); len(q) != 1 || q[0] != slow {
		t.Fatalf("quarantined = %v", q)
	}
	// A heartbeat does NOT lift quarantine — slow is a different fault
	// than silent, and a straggler keeps heartbeating the whole time.
	l.Heartbeat(slow)
	if l.Alive(slow) {
		t.Fatal("heartbeat must not lift quarantine")
	}
}
