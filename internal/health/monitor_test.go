package health

import (
	"strings"
	"sync"
	"testing"
)

// report is a shorthand for a per-stage pipeline report.
func stageReport(lane, stage int, fwd, bwd float64) StepStats {
	return StepStats{Engine: "pp", Lane: lane, Stage: stage, Rank: -1, FwdSec: fwd, BwdSec: bwd}
}

func TestMonitorNilSafe(t *testing.T) {
	var m *Monitor
	m.ReportStep(StepStats{}) // must not panic
	if m.Alerts() != nil || m.Reports() != 0 || m.StepEWMASec() != 0 {
		t.Fatal("nil monitor must be empty")
	}
}

func TestLaneStragglerAlert(t *testing.T) {
	var alerts []Alert
	m := NewMonitor(Config{OnAlert: func(a Alert) { alerts = append(alerts, a) }})
	// Two lanes, two stages. Lane 1 is ~10x slower on both stages.
	for i := 0; i < 5; i++ {
		m.ReportStep(stageReport(0, 0, 0.010, 0.020))
		m.ReportStep(stageReport(0, 1, 0.010, 0.020))
		m.ReportStep(stageReport(1, 0, 0.100, 0.200))
		m.ReportStep(stageReport(1, 1, 0.100, 0.200))
	}
	if len(alerts) == 0 {
		t.Fatal("expected a straggler alert for lane 1")
	}
	a := alerts[0]
	if a.Kind != Straggler || a.Lane != 1 {
		t.Fatalf("alert = %+v", a)
	}
	if a.Ratio < stragglerFactor {
		t.Fatalf("ratio = %.2f, want >= %v", a.Ratio, stragglerFactor)
	}
	if !strings.Contains(a.String(), "straggler") || !strings.Contains(a.String(), "lane 1") {
		t.Fatalf("String() = %q", a.String())
	}
}

func TestNoAlertWhenBalanced(t *testing.T) {
	m := NewMonitor(Config{})
	for i := 0; i < 20; i++ {
		for lane := 0; lane < 2; lane++ {
			for stage := 0; stage < 2; stage++ {
				m.ReportStep(stageReport(lane, stage, 0.010, 0.020))
			}
		}
	}
	if got := m.Alerts(); len(got) != 0 {
		t.Fatalf("balanced lanes raised alerts: %+v", got)
	}
}

// TestNoiseRaisesNoAlert: what a healthy in-process run shows is not a
// straggler or a drift: lanes 5× apart by under a millisecond, one
// descheduled report, a stage whose few milliseconds triple.
func TestNoiseRaisesNoAlert(t *testing.T) {
	m := NewMonitor(Config{})
	for i := 0; i < 20; i++ {
		m.ReportStep(stageReport(0, 0, 0.0001, 0.0001))
		m.ReportStep(stageReport(1, 0, 0.0005, 0.0005))
		m.ReportStep(StepStats{Engine: "dp", Lane: -1, Stage: -1, Rank: 0, StepSec: 0.0001})
		m.ReportStep(StepStats{Engine: "dp", Lane: -1, Stage: -1, Rank: 1, StepSec: 0.0006})
		spike := 0.001
		if i == 10 {
			spike = 0.050
		}
		m.ReportStep(stageReport(2, 1, spike, spike))
		m.ReportStep(stageReport(3, 1, 0.001, 0.001))
		drift := 0.001
		if i > 8 {
			drift = 0.003
		}
		m.ReportStep(stageReport(4, 2, drift, drift))
	}
	if got := m.Alerts(); len(got) != 0 {
		t.Fatalf("noise raised alerts: %+v", got)
	}
}

func TestRankStragglerAlert(t *testing.T) {
	m := NewMonitor(Config{})
	for i := 0; i < 5; i++ {
		m.ReportStep(StepStats{Engine: "dp", Lane: -1, Stage: -1, Rank: 0, StepSec: 0.010})
		m.ReportStep(StepStats{Engine: "dp", Lane: -1, Stage: -1, Rank: 1, StepSec: 0.010})
		m.ReportStep(StepStats{Engine: "dp", Lane: -1, Stage: -1, Rank: 2, StepSec: 0.200})
	}
	alerts := m.Alerts()
	if len(alerts) == 0 {
		t.Fatal("expected a rank straggler alert")
	}
	if alerts[0].Rank != 2 || alerts[0].Kind != Straggler {
		t.Fatalf("alert = %+v", alerts[0])
	}
}

func TestSelfDriftAlert(t *testing.T) {
	// One lane only (no group median to compare against): the stage is
	// fast for its baseline window then slows 5x — thermal throttling.
	m := NewMonitor(Config{})
	for i := 0; i < minSamples; i++ {
		m.ReportStep(stageReport(0, 0, 0.010, 0.010))
	}
	for i := 0; i < 10; i++ {
		m.ReportStep(stageReport(0, 0, 0.050, 0.050))
	}
	var drift bool
	for _, a := range m.Alerts() {
		if a.Kind == Drift && a.Lane == 0 && a.Stage == 0 {
			drift = true
		}
	}
	if !drift {
		t.Fatalf("expected self-drift alert, got %+v", m.Alerts())
	}
}

// TestAlertCooldown: a straggler that stays slow is reported once per
// cooldown window, not on every report.
func TestAlertCooldown(t *testing.T) {
	m := NewMonitor(Config{})
	stragglers := func() (n int) {
		for _, a := range m.Alerts() {
			if a.Kind == Straggler {
				n++
			}
		}
		return n
	}
	// Both lanes settle after minSamples rounds and lane 1 fires; the
	// rounds after that fall inside its cooldown.
	for i := 0; i < minSamples+cooldown/2-1; i++ {
		m.ReportStep(stageReport(0, 0, 0.010, 0.010))
		m.ReportStep(stageReport(1, 0, 0.200, 0.200))
	}
	if got := stragglers(); got != 1 {
		t.Fatalf("%d straggler alerts within one cooldown, want 1", got)
	}
	// One round later the window has passed and lane 1 fires again.
	m.ReportStep(stageReport(0, 0, 0.010, 0.010))
	m.ReportStep(stageReport(1, 0, 0.200, 0.200))
	if got := stragglers(); got != 2 {
		t.Fatalf("%d straggler alerts after the cooldown, want 2", got)
	}
}

func TestStepEWMA(t *testing.T) {
	m := NewMonitor(Config{})
	m.ReportStep(StepStats{Engine: "hybrid", Lane: -1, Stage: -1, Rank: -1, StepSec: 0.100})
	m.ReportStep(StepStats{Engine: "hybrid", Lane: -1, Stage: -1, Rank: -1, StepSec: 0.100})
	if e := m.StepEWMASec(); e < 0.099 || e > 0.101 {
		t.Fatalf("step EWMA = %f, want ~0.1", e)
	}
	m.ReportStep(StepStats{Engine: "hybrid", Lane: -1, Stage: -1, Rank: -1, StepSec: 0.200})
	if e, want := m.StepEWMASec(), 0.100+alpha*0.100; e < want-1e-9 || e > want+1e-9 {
		t.Fatalf("step EWMA = %f, want %f", e, want)
	}
}

func TestMonitorAlertsFeedFlight(t *testing.T) {
	r := NewRecorder(16)
	m := NewMonitor(Config{Flight: r})
	for i := 0; i < 5; i++ {
		m.ReportStep(stageReport(0, 0, 0.010, 0.010))
		m.ReportStep(stageReport(1, 0, 0.200, 0.200))
	}
	var found bool
	for _, ev := range r.Events() {
		if ev.Kind == "alert" && ev.Detail == "straggler" && ev.Lane == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("alert not recorded in flight ring: %+v", r.Events())
	}
}

func TestMonitorConcurrentReporters(t *testing.T) {
	m := NewMonitor(Config{})
	var wg sync.WaitGroup
	for lane := 0; lane < 4; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.ReportStep(stageReport(lane, i%2, 0.001, 0.002))
			}
		}(lane)
	}
	wg.Wait()
	if got := m.Reports(); got != 4*200 {
		t.Fatalf("reports = %d, want %d", got, 4*200)
	}
}
