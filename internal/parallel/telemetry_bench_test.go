package parallel

import (
	"testing"

	"pac/internal/health"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/telemetry"
)

// benchHybridStep measures one hybrid 2×2 training step. Run the trio
// to bound the observability cost (acceptance: tracing or health
// monitoring each add <5% step time):
//
//	go test ./internal/parallel/ -bench HybridStep -benchtime 20x
func benchHybridStep(b *testing.B, tr *telemetry.Tracer, mon *health.Monitor) {
	batch := makeBatch(8)
	h := NewHybrid(2, 2, 2, lr, func(lane int) *PipelineEngine {
		m := model.New(model.Tiny())
		tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
		e := NewPipeline(m, tech, 2, nil, 2, lr)
		e.Trace = tr
		e.TracePID = lane
		if mon != nil {
			e.Health = mon
			e.HealthLane = lane
		}
		return e
	})
	h.Trace = tr
	if mon != nil {
		h.Health = mon
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustStep(b, h, batch)
	}
}

func BenchmarkHybridStepTelemetryOff(b *testing.B) { benchHybridStep(b, nil, nil) }

func BenchmarkHybridStepTelemetryOn(b *testing.B) { benchHybridStep(b, telemetry.NewTracer(), nil) }

// BenchmarkHybridStepTraceSampled measures production-style causal
// tracing: steps root traces at a 10% sample rate, sampled steps
// carry trace context across every stage boundary inside frame
// envelopes and record per-microbatch F/B spans with
// trace/span/parent args, unsampled steps pay only ID derivation.
// (TelemetryOn above is the 100%-sampled worst case — with a tracer
// attached every step now records the full causal tree.)
func BenchmarkHybridStepTraceSampled(b *testing.B) {
	tr := telemetry.NewTracer()
	tr.SetSampleRate(0.1)
	benchHybridStep(b, tr, nil)
}

// BenchmarkHybridStepHealthOn runs with the full health path hot: a
// monitor consuming every per-stage and whole-step report plus the
// global flight recorder capturing step events.
func BenchmarkHybridStepHealthOn(b *testing.B) {
	health.Enable(256)
	defer health.Disable()
	mon := health.NewMonitor(health.Config{Flight: health.Flight()})
	benchHybridStep(b, nil, mon)
}
