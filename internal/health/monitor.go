package health

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// StepStats is one engine report: what a lane/stage/rank just spent on
// a training step. Engines fill the locating fields they have and leave
// the rest -1:
//
//   - hybrid whole step:   Engine "hybrid", Lane -1, Stage -1, Rank -1
//   - pipeline stage:      Engine "pp", Lane l, Stage s, Rank -1
//   - DP replica:          Engine "dp", Lane -1, Stage -1, Rank r
//   - DP whole step:       Engine "dp", Lane -1, Stage -1, Rank -1
type StepStats struct {
	Engine string
	Lane   int
	Stage  int
	Rank   int
	// FwdSec and BwdSec are the seconds of the step's forward and
	// backward work as the reporter times them. A DP rank reports its
	// compute before the AllReduce in FwdSec. A pipeline stage times each
	// micro-batch wall to wall, boundary receive waits included, so every
	// stage of a pipelined step reads about the whole step: the numbers
	// compare lanes, not stages.
	FwdSec, BwdSec float64
	// StepSec is the wall time of the whole step as this reporter saw
	// it, including communication.
	StepSec float64
	// Bytes is the boundary/collective traffic this reporter sent. The
	// monitor does not read it; the benchmark's step clock
	// (benchmark/finetune.go) sums it into parallel.pp_bytes and
	// parallel.dp_bytes, so it stays.
	Bytes int64
}

// Sink receives engine reports. The engines hold a Sink field (nil =
// monitoring off) rather than a *Monitor so tests can inject fakes.
type Sink interface {
	ReportStep(StepStats)
}

// AlertKind classifies monitor alerts.
type AlertKind string

const (
	// Straggler: one lane (hybrid phase) or rank (cached phase) is
	// persistently slower than the group's lower median by
	// stragglerFactor.
	Straggler AlertKind = "straggler"
	// Drift: one lane-stage series grew past its own early baseline by
	// driftFactor — a device that was fine early in the run and slowed
	// down later.
	Drift AlertKind = "drift"
)

// Alert is a typed health finding. Lane/Stage/Rank locate the subject
// (-1 when not applicable); Measured, Baseline and Ratio quantify it
// (Ratio = Measured/Baseline at firing time).
type Alert struct {
	Kind   AlertKind
	Engine string
	Lane   int
	Stage  int
	Rank   int
	// Measured is the offending rolling value in seconds; Baseline is
	// what it was compared against (the group's lower median or the
	// series' own early baseline).
	Measured, Baseline, Ratio float64
	At                        time.Time
}

func (a Alert) String() string {
	who := ""
	switch {
	case a.Lane >= 0 && a.Stage >= 0:
		who = fmt.Sprintf("lane %d stage %d", a.Lane, a.Stage)
	case a.Lane >= 0:
		who = fmt.Sprintf("lane %d", a.Lane)
	case a.Rank >= 0:
		who = fmt.Sprintf("rank %d", a.Rank)
	default:
		who = "group"
	}
	return fmt.Sprintf("%s [%s] %s: %.4fs vs baseline %.4fs (%.1f×)",
		a.Kind, a.Engine, who, a.Measured, a.Baseline, a.Ratio)
}

// The monitor's thresholds.
const (
	stragglerFactor = 3.0 // a lane/rank this many times its group's lower median is a straggler
	driftFactor     = 2.5 // a series this many times its own early baseline has drifted
	alpha           = 0.4 // weight of the newest whole step in the step EWMA
	minSamples      = 3   // reports a series needs before it takes part in comparisons
	window          = 5   // a series' value is the lower median of its last window reports
	cooldown        = 16  // reports during which a repeat alert for the same subject is dropped
	// noiseSec is the least excess, in seconds per report, worth an
	// alert. Healthy 2 × 2 Tiny runs on 2 cores show lanes, ranks and
	// a stage against its own baseline up to ≈ 4 ms and 5× apart; a
	// 30 ms per-send delay puts a lane ≈ 300 ms behind.
	noiseSec = 0.010
)

// slower reports whether v is past base by factor and by more than
// noiseSec.
func slower(v, base, factor float64) bool { return v > base*factor && v-base > noiseSec }

// Config wires a Monitor to the rest of the run; the zero value is a
// monitor nobody listens to.
type Config struct {
	// OnAlert observes every raised alert. It is called synchronously
	// with the monitor's lock held — it must be quick and must not call
	// back into the Monitor.
	OnAlert func(Alert)
	// Flight, when non-nil, receives an "alert" event per alert.
	Flight *Recorder
}

// series is one rolling measurement stream (per lane×stage or per
// rank): the seconds of its last window reports plus an early baseline
// for self-drift detection.
type series struct {
	n        int
	recent   [window]float64 // report i is at i % window
	baseline float64
}

func (s *series) observe(sec float64) {
	s.recent[s.n%window] = sec
	s.n++
}

// total is the lower median of the recent reports: one descheduled step
// does not move it, a lane that stays slow does.
func (s *series) total() float64 {
	return lowerMedian(append([]float64(nil), s.recent[:min(s.n, window)]...))
}

type laneStage struct{ lane, stage int }

// Monitor derives straggler and drift alerts from engine reports. It is
// safe for concurrent reporters; a nil *Monitor is a no-op Sink.
type Monitor struct {
	cfg Config

	mu        sync.Mutex
	lanes     map[laneStage]*series
	ranks     map[int]*series
	stepE     float64
	stepN     int
	reports   int
	lastAlert map[string]int
	alerts    []Alert
}

// NewMonitor builds a monitor that reports to cfg's listeners.
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{
		cfg:       cfg,
		lanes:     map[laneStage]*series{},
		ranks:     map[int]*series{},
		lastAlert: map[string]int{},
	}
}

// ReportStep ingests one engine report (nil-safe no-op when the monitor
// is disabled). Detection runs inline — a handful of map lookups and a
// small sort per report, far off the per-send hot path.
func (m *Monitor) ReportStep(s StepStats) {
	if m == nil {
		return
	}
	mReports.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reports++

	switch {
	case s.Stage >= 0 && s.Lane >= 0:
		key := laneStage{s.Lane, s.Stage}
		sr := m.lanes[key]
		if sr == nil {
			sr = &series{}
			m.lanes[key] = sr
		}
		sr.observe(s.FwdSec + s.BwdSec)
		m.checkSelfDrift(s.Engine, s.Lane, s.Stage, sr)
		m.checkLaneStraggler(s.Engine)
	case s.Rank >= 0:
		sr := m.ranks[s.Rank]
		if sr == nil {
			sr = &series{}
			m.ranks[s.Rank] = sr
		}
		compute := s.FwdSec + s.BwdSec
		if compute == 0 {
			compute = s.StepSec
		}
		sr.observe(compute)
		m.checkRankStraggler(s.Engine)
	default:
		if m.stepN == 0 {
			m.stepE = s.StepSec
		} else {
			m.stepE += alpha * (s.StepSec - m.stepE)
		}
		m.stepN++
	}
}

// laneTotals returns per-lane summed stage values, only for lanes whose
// every observed stage has minSamples reports.
func (m *Monitor) laneTotals() map[int]float64 {
	totals := map[int]float64{}
	ready := map[int]bool{}
	for k, sr := range m.lanes {
		if _, seen := ready[k.lane]; !seen {
			ready[k.lane] = true
		}
		if sr.n < minSamples {
			ready[k.lane] = false
		}
		totals[k.lane] += sr.total()
	}
	for l, ok := range ready {
		if !ok {
			delete(totals, l)
		}
	}
	return totals
}

// lowerMedian returns the lower median of vs (the faster half's edge),
// so a single slow member in a group of two is compared against the
// fast one, not against itself.
func lowerMedian(vs []float64) float64 {
	sort.Float64s(vs)
	return vs[(len(vs)-1)/2]
}

func (m *Monitor) checkLaneStraggler(engine string) {
	totals := m.laneTotals()
	if len(totals) < 2 {
		return
	}
	vals := make([]float64, 0, len(totals))
	for _, v := range totals {
		vals = append(vals, v)
	}
	med := lowerMedian(vals)
	if med <= 0 {
		return
	}
	for lane, v := range totals {
		if slower(v, med, stragglerFactor) {
			m.fire(Alert{Kind: Straggler, Engine: engine, Lane: lane, Stage: -1, Rank: -1,
				Measured: v, Baseline: med, Ratio: v / med, At: time.Now()})
		}
	}
}

func (m *Monitor) checkRankStraggler(engine string) {
	vals := make([]float64, 0, len(m.ranks))
	for _, sr := range m.ranks {
		if sr.n < minSamples {
			return // compare only once every rank has settled
		}
		vals = append(vals, sr.total())
	}
	if len(vals) < 2 {
		return
	}
	med := lowerMedian(vals)
	if med <= 0 {
		return
	}
	for rank, sr := range m.ranks {
		if v := sr.total(); slower(v, med, stragglerFactor) {
			m.fire(Alert{Kind: Straggler, Engine: engine, Lane: -1, Stage: -1, Rank: rank,
				Measured: v, Baseline: med, Ratio: v / med, At: time.Now()})
		}
	}
}

// checkSelfDrift compares a series against its own baseline captured
// after minSamples reports — the thermal-throttling signal: a stage
// that was fine early in the run and slowed down later.
func (m *Monitor) checkSelfDrift(engine string, lane, stage int, sr *series) {
	if sr.n == minSamples {
		sr.baseline = sr.total()
		return
	}
	if sr.n > minSamples && sr.baseline > 0 && slower(sr.total(), sr.baseline, driftFactor) {
		m.fire(Alert{Kind: Drift, Engine: engine, Lane: lane, Stage: stage, Rank: -1,
			Measured: sr.total(), Baseline: sr.baseline, Ratio: sr.total() / sr.baseline, At: time.Now()})
	}
}

// fire records an alert, applying the per-subject cooldown. Called with
// m.mu held.
func (m *Monitor) fire(a Alert) {
	key := fmt.Sprintf("%s|%s|%d|%d|%d", a.Kind, a.Engine, a.Lane, a.Stage, a.Rank)
	if last, ok := m.lastAlert[key]; ok && m.reports-last < cooldown {
		return
	}
	m.lastAlert[key] = m.reports
	m.alerts = append(m.alerts, a)
	switch a.Kind {
	case Straggler:
		mAlertStraggler.Inc()
	default:
		mAlertDrift.Inc()
	}
	m.cfg.Flight.Record("alert", a.Lane, a.Rank, string(a.Kind), a.Ratio)
	if m.cfg.OnAlert != nil {
		m.cfg.OnAlert(a)
	}
}

// Alerts returns a copy of every alert raised so far (nil-safe).
func (m *Monitor) Alerts() []Alert {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Alert, len(m.alerts))
	copy(out, m.alerts)
	return out
}

// Reports returns how many reports were ingested (nil-safe).
func (m *Monitor) Reports() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reports
}

// StepEWMASec returns the whole-step EWMA in seconds, 0 before the
// first whole-step report (nil-safe). The supervisor compares this
// across re-plans to judge whether adaptation helped.
func (m *Monitor) StepEWMASec() float64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stepN == 0 {
		return 0
	}
	return m.stepE
}
