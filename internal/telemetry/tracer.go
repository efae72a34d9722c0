package telemetry

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"
)

// Trace process-id conventions used by the instrumented runtime:
// hybrid lanes trace as pid 0..lanes-1 (tid = pipeline stage), the
// cached-epoch data-parallel group as PidDP (tid = replica rank),
// orchestration work — whole steps, snapshot capture/restore, cache
// salvage — as PidOrch, a serve.Server as PidServe (pac-loadgen's
// in-process target as PidServe+1), and the load generator's
// client-side request spans as PidClient. Memory-ledger counter
// tracks (process ledger at PidMem, device ledger i at PidMem+1+i)
// render the /debug/mem timeline under the same spans. The tracer
// emits process_name metadata so the viewer labels the tracks.
const (
	PidDP     = 1000
	PidOrch   = 2000
	PidServe  = 3000
	PidClient = 4000
	PidMem    = 5000
)

// DefaultTraceCap bounds the span ring buffer: old spans are
// overwritten (and counted in pac_trace_dropped_total) once the cap is
// reached, so a long-lived traced process holds a sliding window of
// recent activity rather than growing without bound.
const DefaultTraceCap = 1 << 18

var mTraceDropped = Default().Counter("pac_trace_dropped_total")

// Tracer records wall-clock spans as Chrome trace events. All methods
// are safe on a nil receiver (they no-op), so instrumented code passes
// a *Tracer through unchanged and pays only a nil check when tracing
// is off. Recording is a timestamp pair plus one mutex-guarded ring
// write, cheap relative to the micro-batch-level work it brackets.
//
// Span events live in a bounded ring (DefaultTraceCap unless
// NewTracerCap chose otherwise); process-name metadata is kept aside
// so track labels survive ring wraparound. Beyond the fire-and-forget
// Instant, the *TC family threads a TraceContext through: RootSpanTC
// mints a new trace, SpanTC parents a child under
// an incoming context (from an HTTP header or a transport envelope),
// and each recorded span carries trace/span/parent IDs in Args so
// Perfetto still renders the dump while pac-trace rebuilds the causal
// tree.
type Tracer struct {
	start time.Time

	mu     sync.Mutex
	ring   []ChromeEvent // span + instant events, bounded
	head   int           // next write slot once full
	full   bool
	meta   []ChromeEvent // Ph "M" process names, unbounded (tiny)
	rng    *rand.Rand
	sample float64 // RootSpanTC sampling probability, default 1
}

// NewTracer starts an empty trace with the default event cap;
// timestamps are relative to now.
func NewTracer() *Tracer { return NewTracerCap(DefaultTraceCap) }

// NewTracerCap starts an empty trace whose span ring holds at most cap
// events (cap < 1 falls back to DefaultTraceCap).
func NewTracerCap(cap int) *Tracer {
	if cap < 1 {
		cap = DefaultTraceCap
	}
	return &Tracer{
		start:  time.Now(),
		ring:   make([]ChromeEvent, 0, cap),
		rng:    rand.New(rand.NewSource(int64(NewID()))),
		sample: 1,
	}
}

// SetSampleRate sets the probability (clamped to [0,1]) that
// RootSpanTC marks a new trace sampled. Child spans inherit the root's
// decision, so a trace is recorded entirely or not at all.
func (t *Tracer) SetSampleRate(p float64) {
	if t == nil {
		return
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	t.mu.Lock()
	t.sample = p
	t.mu.Unlock()
}

func (t *Tracer) since(at time.Time) float64 {
	return float64(at.Sub(t.start).Nanoseconds()) / 1e3 // microseconds
}

func (t *Tracer) add(ev ChromeEvent) {
	t.mu.Lock()
	if t.full {
		t.ring[t.head] = ev
		t.head = (t.head + 1) % len(t.ring)
		t.mu.Unlock()
		mTraceDropped.Inc()
		return
	}
	t.ring = append(t.ring, ev)
	if len(t.ring) == cap(t.ring) {
		t.full = true
	}
	t.mu.Unlock()
}

func (t *Tracer) addMeta(ev ChromeEvent) {
	t.mu.Lock()
	t.meta = append(t.meta, ev)
	t.mu.Unlock()
}

// traceArgs stamps span identity into Chrome Args: trace/span always,
// parent only for non-root spans, plus any extra key/value pairs.
func traceArgs(tc TraceContext, parent uint64, extra map[string]interface{}) map[string]interface{} {
	args := map[string]interface{}{
		"trace": fmt.Sprintf("%016x", tc.TraceID),
		"span":  fmt.Sprintf("%016x", tc.SpanID),
	}
	if parent != 0 {
		args["parent"] = fmt.Sprintf("%016x", parent)
	}
	for k, v := range extra {
		args[k] = v
	}
	return args
}

// RootSpanTC mints a fresh trace, applies the sampling decision, and
// opens its root span. The returned context parents children created
// with SpanTC (locally or across a boundary); the closure ends the
// span. Unsampled roots still return a valid context — the decision
// propagates so downstream stages skip recording too.
func (t *Tracer) RootSpanTC(cat, name string, pid, tid int) (TraceContext, func()) {
	if t == nil {
		return TraceContext{}, func() {}
	}
	tc := TraceContext{TraceID: NewID(), SpanID: NewID()}
	t.mu.Lock()
	tc.Sampled = t.sample >= 1 || (t.sample > 0 && t.rng.Float64() < t.sample)
	t.mu.Unlock()
	if !tc.Sampled {
		return tc, func() {}
	}
	begin := time.Now()
	return tc, func() {
		t.add(ChromeEvent{
			Name: name, Cat: cat, Ph: "X",
			Ts: t.since(begin), Dur: float64(time.Since(begin).Nanoseconds()) / 1e3,
			Pid: pid, Tid: tid,
			Args: traceArgs(tc, 0, nil),
		})
	}
}

// SpanTC opens a child span under parent. The returned context carries
// the child's span ID for further nesting; the closure ends the span.
// An invalid or unsampled parent records nothing and echoes the parent
// back, so propagation still works on unsampled traces.
func (t *Tracer) SpanTC(parent TraceContext, cat, name string, pid, tid int) (TraceContext, func()) {
	return t.SpanTCArgs(parent, cat, name, pid, tid, nil)
}

// SpanTCArgs is SpanTC with extra Args attached to the recorded event
// (e.g. {"device": "replica-1"}).
func (t *Tracer) SpanTCArgs(parent TraceContext, cat, name string, pid, tid int, extra map[string]interface{}) (TraceContext, func()) {
	if t == nil || !parent.Valid() || !parent.Sampled {
		return parent, func() {}
	}
	tc := TraceContext{TraceID: parent.TraceID, SpanID: NewID(), Sampled: true}
	begin := time.Now()
	return tc, func() {
		t.add(ChromeEvent{
			Name: name, Cat: cat, Ph: "X",
			Ts: t.since(begin), Dur: float64(time.Since(begin).Nanoseconds()) / 1e3,
			Pid: pid, Tid: tid,
			Args: traceArgs(tc, parent.SpanID, extra),
		})
	}
}

// RecordSpanAt records a span retroactively from explicit timestamps —
// the tail sampler uses it to admit a request's client-side span after
// its latency is known. parent 0 records a root.
func (t *Tracer) RecordSpanAt(tc TraceContext, parent uint64, cat, name string, pid, tid int, begin time.Time, d time.Duration, extra map[string]interface{}) {
	if t == nil || !tc.Valid() {
		return
	}
	t.add(ChromeEvent{
		Name: name, Cat: cat, Ph: "X",
		Ts: t.since(begin), Dur: float64(d.Nanoseconds()) / 1e3,
		Pid: pid, Tid: tid,
		Args: traceArgs(tc, parent, extra),
	})
}

// Instant records a zero-duration marker event.
func (t *Tracer) Instant(cat, name string, pid, tid int) {
	if t == nil {
		return
	}
	t.add(ChromeEvent{Name: name, Cat: cat, Ph: "X", Ts: t.since(time.Now()), Pid: pid, Tid: tid})
}

// InstantTC records a zero-duration marker attributed to a trace —
// retries and cancellations use it so pac-trace can show them on the
// causal tree.
func (t *Tracer) InstantTC(tc TraceContext, cat, name string, pid, tid int) {
	if t == nil || !tc.Valid() || !tc.Sampled {
		return
	}
	t.add(ChromeEvent{Name: name, Cat: cat, Ph: "X", Ts: t.since(time.Now()), Pid: pid, Tid: tid,
		Args: traceArgs(tc, 0, nil)})
}

// SetProcessName labels a pid track in the viewer.
func (t *Tracer) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.addMeta(ChromeEvent{Name: "process_name", Ph: "M", Pid: pid,
		Args: map[string]interface{}{"name": name}})
}

// StartTime returns the instant event timestamps are relative to.
// External event producers (e.g. memory-ledger counter tracks) pass it
// as their epoch so their events line up with this tracer's spans.
func (t *Tracer) StartTime() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Len returns the number of recorded events (metadata + retained spans).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.meta) + len(t.ring)
}

// Events returns a copy of the recorded events: metadata first, then
// retained span events oldest to newest.
func (t *Tracer) Events() []ChromeEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ChromeEvent, 0, len(t.meta)+len(t.ring))
	out = append(out, t.meta...)
	if t.full {
		out = append(out, t.ring[t.head:]...)
		out = append(out, t.ring[:t.head]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}

// ChromeJSON renders the trace as a Chrome/Perfetto JSON array.
func (t *Tracer) ChromeJSON() ([]byte, error) {
	return EncodeChromeJSON(t.Events())
}

// WriteFile writes the Chrome JSON trace to path.
func (t *Tracer) WriteFile(path string) error {
	blob, err := t.ChromeJSON()
	if err != nil {
		return fmt.Errorf("telemetry: encode trace: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("telemetry: write trace: %w", err)
	}
	return nil
}
