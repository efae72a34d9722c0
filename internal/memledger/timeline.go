package memledger

import (
	"sync"
	"time"

	"pac/internal/telemetry"
)

// DefaultTimelineCap bounds the timeline ring: at the default 250 ms
// sampling cadence it retains about two minutes of history.
const DefaultTimelineCap = 512

// TimelineSample is one periodic observation of a ledger: the total
// plus every account's balance at sampling time.
type TimelineSample struct {
	// T is the wall-clock sample time in Unix nanoseconds.
	T          int64            `json:"t"`
	TotalBytes int64            `json:"total_bytes"`
	Accounts   map[string]int64 `json:"accounts"`
}

// timeline is a bounded ring of samples; the sampler goroutine writes,
// /debug/mem and the Chrome exporter read.
type timeline struct {
	mu   sync.Mutex
	ring []TimelineSample
	head int
	full bool
}

func (t *timeline) push(s TimelineSample) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ring == nil {
		t.ring = make([]TimelineSample, 0, DefaultTimelineCap)
	}
	if t.full {
		t.ring[t.head] = s
		t.head = (t.head + 1) % len(t.ring)
		return
	}
	t.ring = append(t.ring, s)
	if len(t.ring) == cap(t.ring) {
		t.full = true
	}
}

func (t *timeline) snapshot() []TimelineSample {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TimelineSample, 0, len(t.ring))
	if t.full {
		out = append(out, t.ring[t.head:]...)
		out = append(out, t.ring[:t.head]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// Sample records one timeline observation now. The sampler calls this
// periodically; tests and one-shot dumps call it directly.
func (l *Ledger) Sample() {
	l.SampleAt(time.Now())
}

// SampleAt records a timeline observation with an explicit timestamp
// (deterministic tests).
func (l *Ledger) SampleAt(at time.Time) {
	if l == nil {
		return
	}
	l.mu.RLock()
	accounts := make(map[string]int64, len(l.accounts))
	for name, a := range l.accounts {
		accounts[name] = a.Bytes()
	}
	l.mu.RUnlock()
	l.timeline.push(TimelineSample{
		T:          at.UnixNano(),
		TotalBytes: l.Total(),
		Accounts:   accounts,
	})
}

// Timeline returns the retained samples oldest-first (nil-safe).
func (l *Ledger) Timeline() []TimelineSample {
	if l == nil {
		return nil
	}
	return l.timeline.snapshot()
}

// StartSampler launches a goroutine sampling the ledger every interval
// (≤ 0 defaults to 250 ms) and returns its stop function. Stop is
// idempotent and waits for the goroutine to exit.
func (l *Ledger) StartSampler(interval time.Duration) (stop func()) {
	if l == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 250 * time.Millisecond
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				l.Sample()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}

// ChromeCounters renders the timeline as Chrome trace counter events
// (Ph "C"): one "mem" counter track per ledger whose args carry each
// account's bytes, so Perfetto draws the memory area chart directly
// under the span rows of the same dump. Timestamps are microseconds
// relative to epoch — pass a nonzero epoch (e.g. the tracer's start)
// to line counters up with wall-clock spans; a zero epoch uses
// absolute Unix time.
func (l *Ledger) ChromeCounters(pid int, epoch time.Time) []telemetry.ChromeEvent {
	if l == nil {
		return nil
	}
	samples := l.timeline.snapshot()
	evs := make([]telemetry.ChromeEvent, 0, len(samples))
	base := int64(0)
	if !epoch.IsZero() {
		base = epoch.UnixNano()
	}
	for _, s := range samples {
		if s.T < base {
			continue // sampled before the trace started
		}
		args := make(map[string]interface{}, len(s.Accounts))
		for name, b := range s.Accounts {
			args[name] = b
		}
		evs = append(evs, telemetry.ChromeEvent{
			Name: "mem:" + l.Name(),
			Cat:  "mem",
			Ph:   "C",
			Ts:   float64(s.T-base) / 1e3,
			Pid:  pid,
			Args: args,
		})
	}
	return evs
}
