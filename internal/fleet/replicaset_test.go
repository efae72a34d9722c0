package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/serve"
)

func smallSet(t *testing.T, n int) *ReplicaSet {
	t.Helper()
	rs := NewReplicaSet()
	cfg := model.Tiny()
	for i := 0; i < n; i++ {
		m := model.New(cfg)
		tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
		rs.Add(devName(0, i), 0, serve.NewServer(tech, cfg))
		if err := rs.SetVersion(devName(0, i), "v1"); err != nil {
			t.Fatal(err)
		}
	}
	return rs
}

func classifyOnce(t *testing.T, rs *ReplicaSet) {
	t.Helper()
	if _, err := rs.ClassifyFor(context.Background(), 0, [][]int{{2, 3, 4, 5}}, []int{4}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaSetRoutesAroundDrained(t *testing.T) {
	rs := smallSet(t, 3)
	drained := devName(0, 1)
	if err := rs.Apply(context.Background(), Step{Kind: StepDrain, Device: drained, Target: "upgrade"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		classifyOnce(t, rs)
	}
	for _, d := range rs.Observed().Devices {
		r, _ := rs.find(d.Name)
		if d.Name == drained && r.srv.Served() != 0 {
			t.Fatalf("drained replica served %d requests", r.srv.Served())
		}
		if d.Name != drained && r.srv.Served() == 0 {
			t.Fatalf("in-service replica %s served nothing", d.Name)
		}
	}

	// All out of service: typed error, not a hang.
	for i := 0; i < 3; i++ {
		rs.Apply(context.Background(), Step{Kind: StepDrain, Device: devName(0, i), Target: "upgrade"})
	}
	if _, err := rs.ClassifyFor(context.Background(), 0, [][]int{{2, 3}}, []int{2}); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("want ErrNoReplica, got %v", err)
	}
}

func TestReplicaSetQuiesceWaitsForInflight(t *testing.T) {
	rs := smallSet(t, 1)
	r := rs.replicas[0]
	r.inflight.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := rs.Apply(ctx, Step{Kind: StepQuiesce, Device: r.name})
	if err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("quiesce with in-flight request: %v", err)
	}

	// The tail finishing releases the quiesce.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		time.Sleep(5 * time.Millisecond)
		r.inflight.Add(-1)
	}()
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := rs.Apply(ctx2, Step{Kind: StepQuiesce, Device: r.name}); err != nil {
		t.Fatalf("quiesce after drain-out: %v", err)
	}
	wg.Wait()
}

func TestReplicaSetRollToRegisteredVersion(t *testing.T) {
	rs := smallSet(t, 3)
	rs.MinReplicas = 2
	flat := rs.replicas[0].srv.SnapshotWeights()
	v2 := make([]float32, len(flat))
	for i, w := range flat {
		v2[i] = w * 1.5
	}
	rs.RegisterVersion("v2", v2)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rs.RollTo(ctx, "v2"); err != nil {
		t.Fatal(err)
	}
	for _, d := range rs.Observed().Devices {
		if d.AdapterVersion != "v2" || !d.InService() {
			t.Fatalf("replica %s not rolled: %+v", d.Name, d)
		}
	}
	// Weights really changed on every replica.
	for _, r := range rs.replicas {
		got := r.srv.SnapshotWeights()
		if got[0] != v2[0] {
			t.Fatalf("replica %s weights not swapped: %v vs %v", r.name, got[0], v2[0])
		}
	}
	// Snapshot steps captured pre-swap weights.
	if snap := rs.replicas[0].lastSnap; snap == nil || snap[0] != flat[0] {
		t.Fatalf("snapshot missing or post-swap: %v", snap)
	}
	// Status surfaces the rollout.
	st := rs.FleetStatus()
	if st["rollouts"].(int64) != 1 {
		t.Fatalf("rollouts = %v, want 1", st["rollouts"])
	}
	if _, ok := st["last_plan"]; !ok {
		t.Fatal("status missing last_plan")
	}
}

func TestReplicaSetVerifyTargets(t *testing.T) {
	rs := smallSet(t, 2)
	name := devName(0, 0)
	ctx := context.Background()

	// In service: bare verify passes, quarantine verify fails.
	if err := rs.Apply(ctx, Step{Kind: StepVerify, Device: name}); err != nil {
		t.Fatal(err)
	}
	if err := rs.Apply(ctx, Step{Kind: StepVerify, Device: name, Target: "quarantine"}); err == nil {
		t.Fatal("verify quarantine passed on an in-service replica")
	}
	// Version verify checks the stamp.
	if err := rs.Apply(ctx, Step{Kind: StepVerify, Device: name, Target: "v1"}); err != nil {
		t.Fatal(err)
	}
	if err := rs.Apply(ctx, Step{Kind: StepVerify, Device: name, Target: "v9"}); err == nil {
		t.Fatal("verify accepted wrong version")
	}
	// After a quarantine drain, the quarantine verify passes and the
	// bare one fails.
	rs.Apply(ctx, Step{Kind: StepDrain, Device: name, Target: "quarantine"})
	if err := rs.Apply(ctx, Step{Kind: StepVerify, Device: name, Target: "quarantine"}); err != nil {
		t.Fatal(err)
	}
	if err := rs.Apply(ctx, Step{Kind: StepVerify, Device: name}); err == nil {
		t.Fatal("bare verify passed on a quarantined replica")
	}
}
