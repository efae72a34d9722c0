package sim

import (
	"math"
	"testing"

	"pac/internal/cluster"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.After(3, func() { order = append(order, 3) })
	s.After(1, func() { order = append(order, 1) })
	s.After(2, func() { order = append(order, 2) })
	end := s.Run()
	if end != 3 {
		t.Fatalf("end time %v", end)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
}

func TestEventTieBreakDeterministic(t *testing.T) {
	s := New()
	var order []int
	s.At(5, func() { order = append(order, 0) })
	s.At(5, func() { order = append(order, 1) })
	s.Run()
	if order[0] != 0 || order[1] != 1 {
		t.Fatalf("tie order %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	hits := 0
	s.After(1, func() {
		hits++
		s.After(1, func() { hits++ })
	})
	if end := s.Run(); end != 2 || hits != 2 {
		t.Fatalf("end %v hits %d", end, hits)
	}
}

func TestPastEventClamped(t *testing.T) {
	s := New()
	s.After(5, func() {
		s.At(1, func() {}) // in the past — must run at now, not rewind
	})
	if end := s.Run(); end != 5 {
		t.Fatalf("clock moved backwards: %v", end)
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	if done := r.Acquire(0, 2); done != 2 {
		t.Fatalf("first acquire %v", done)
	}
	if done := r.Acquire(1, 2); done != 4 {
		t.Fatalf("queued acquire %v", done)
	}
	if done := r.Acquire(10, 1); done != 11 {
		t.Fatalf("idle acquire %v", done)
	}
}

func TestTransferTime(t *testing.T) {
	if TransferTime(0, 1e6, 1) != 0 {
		t.Fatal("zero bytes should be free")
	}
	got := TransferTime(1e6, 1e6, 0.5)
	if math.Abs(got-1.5) > 1e-9 {
		t.Fatalf("TransferTime %v", got)
	}
}

func TestRingAllReduceProperties(t *testing.T) {
	if RingAllReduceTime(1000, 1, 1e6, 0) != 0 {
		t.Fatal("single device allreduce should be free")
	}
	// 2(n-1) steps of (bytes/n)/bw: for n=4, bytes=4e6, bw=1e6: 6 × 1 = 6s.
	got := RingAllReduceTime(4e6, 4, 1e6, 0)
	if math.Abs(got-6) > 1e-9 {
		t.Fatalf("ring time %v", got)
	}
	// Ring all-reduce cost grows sublinearly in n for fixed payload.
	t8 := RingAllReduceTime(4e6, 8, 1e6, 0)
	if t8 > 2*got {
		t.Fatalf("ring not scalable: n=4 %v n=8 %v", got, t8)
	}
}

func TestBroadcastTime(t *testing.T) {
	if BroadcastTime(1e6, 1, 1e6, 0) != 0 {
		t.Fatal("self-broadcast free")
	}
	got := BroadcastTime(1e6, 3, 1e6, 0)
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("broadcast %v", got)
	}
}

func uniformPipeline(stages, micro int, fwd, bwd float64) PipelineConfig {
	sc := make([]StageCost, stages)
	for i := range sc {
		sc[i] = StageCost{Fwd: fwd, Bwd: bwd}
	}
	return PipelineConfig{Stages: sc, Micro: micro, BytesPerSec: 1e12, LatencySec: 0}
}

func TestPipelineSingleStage(t *testing.T) {
	// One stage = sequential execution: M × (fwd + bwd).
	res := Pipeline(uniformPipeline(1, 4, 1, 2))
	if math.Abs(res.MiniBatchTime-12) > 1e-9 {
		t.Fatalf("single-stage time %v want 12", res.MiniBatchTime)
	}
	if res.PeakInflight[0] != 1 {
		t.Fatalf("1F1B inflight on single stage = %d", res.PeakInflight[0])
	}
}

func TestPipeline1F1BMatchesClosedForm(t *testing.T) {
	// Uniform stages, zero comm: 1F1B total = (M + S - 1) × (f + b).
	for _, tc := range []struct{ s, m int }{{2, 4}, {4, 8}, {3, 6}} {
		res := Pipeline(uniformPipeline(tc.s, tc.m, 1, 1))
		want := float64(tc.m+tc.s-1) * 2
		if math.Abs(res.MiniBatchTime-want) > 1e-6 {
			t.Fatalf("S=%d M=%d: time %v want %v", tc.s, tc.m, res.MiniBatchTime, want)
		}
	}
}

func TestPipelineInflightBounded(t *testing.T) {
	res := Pipeline(uniformPipeline(4, 16, 1, 1))
	for s, peak := range res.PeakInflight {
		if peak > 4-s {
			t.Fatalf("stage %d inflight %d exceeds 1F1B bound %d", s, peak, 4-s)
		}
	}
	// Stage 0 should reach its full warmup depth.
	if res.PeakInflight[0] != 4 {
		t.Fatalf("stage 0 peak %d want 4", res.PeakInflight[0])
	}
}

func TestPipelineMoreStagesMoreBubble(t *testing.T) {
	// Same total work split over more stages on a slow network ⇒ more
	// bubble + comm ⇒ slower. (The paper's argument for hybrid
	// parallelism over deep pipelines.)
	shallow := PipelineConfig{
		Stages: []StageCost{{Fwd: 2, Bwd: 4, TxBytes: 1e6}, {Fwd: 2, Bwd: 4}},
		Micro:  4, BytesPerSec: 1e6, LatencySec: 0.01,
	}
	deep := PipelineConfig{
		Stages: []StageCost{
			{Fwd: 1, Bwd: 2, TxBytes: 1e6}, {Fwd: 1, Bwd: 2, TxBytes: 1e6},
			{Fwd: 1, Bwd: 2, TxBytes: 1e6}, {Fwd: 1, Bwd: 2},
		},
		Micro: 4, BytesPerSec: 1e6, LatencySec: 0.01,
	}
	rs, rd := Pipeline(shallow), Pipeline(deep)
	util := func(r PipelineResult, stages int) float64 {
		var busy float64
		for _, b := range r.Busy {
			busy += b
		}
		return busy / (float64(stages) * r.MiniBatchTime)
	}
	us, ud := util(rs, 2), util(rd, 4)
	if ud >= us {
		t.Fatalf("deep pipeline utilization %.2f not below shallow %.2f — bubbles unmodeled", ud, us)
	}
}

func TestPipelineNoBackwardFasterAndUnbounded(t *testing.T) {
	cfg := uniformPipeline(2, 8, 1, 2)
	full := Pipeline(cfg).MiniBatchTime
	cfg.NoBackward = true
	fwd := Pipeline(cfg).MiniBatchTime
	if fwd >= full/2 {
		t.Fatalf("forward-only %v vs full %v", fwd, full)
	}
}

func TestPipelineAllReduceExtendsTail(t *testing.T) {
	cfg := uniformPipeline(2, 4, 1, 1)
	base := Pipeline(cfg).MiniBatchTime
	cfg.Stages[0].AllReduce = 3
	withAR := Pipeline(cfg).MiniBatchTime
	if withAR < base || withAR > base+3+1e-9 {
		t.Fatalf("allreduce handling: base %v with %v", base, withAR)
	}
}

func TestPipelineBusyAccounting(t *testing.T) {
	res := Pipeline(uniformPipeline(2, 4, 1, 2))
	for s, busy := range res.Busy {
		if math.Abs(busy-12) > 1e-9 { // 4 × (1+2)
			t.Fatalf("stage %d busy %v want 12", s, busy)
		}
	}
}

func TestDataParallelStep(t *testing.T) {
	got := DataParallelStep([]float64{1, 3, 2}, 0, 1e6, 0)
	if got != 3 {
		t.Fatalf("DP step without comm %v", got)
	}
	withComm := DataParallelStep([]float64{1, 1}, 2e6, 1e6, 0)
	if math.Abs(withComm-(1+2)) > 1e-9 { // ring: 2 steps × 1e6/1e6
		t.Fatalf("DP step with comm %v", withComm)
	}
}

func TestClusterPresets(t *testing.T) {
	nano := cluster.JetsonNano()
	if gib := float64(nano.MemoryBytes) / (1 << 30); gib > 4 || gib < 1 {
		t.Fatalf("nano memory %v GiB implausible", gib)
	}
	if nano.BytesPerSec() != 16e6 {
		t.Fatalf("128 Mbps should be 16 MB/s, got %v", nano.BytesPerSec())
	}
	c := cluster.Nanos(8)
	if c.Size() != 8 {
		t.Fatal("Nanos cluster malformed")
	}
	if c.Devices[0].Name == c.Devices[1].Name {
		t.Fatal("device names not unique")
	}
}
