package sim

import (
	"fmt"

	"pac/internal/telemetry"
)

// TraceEvent is one scheduled activity in a simulated pipeline run.
type TraceEvent struct {
	Stage int     // stage index; -1 for the shared network track
	Kind  string  // "F" forward, "B" backward, "TX" transfer
	Micro int     // micro-batch id
	Start float64 // seconds of virtual time
	End   float64
}

// Trace collects events from a Pipeline run (attach via
// PipelineConfig.Trace). Events are appended in completion order.
type Trace struct {
	Events []TraceEvent
}

func (t *Trace) add(ev TraceEvent) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, ev)
}

// ChromeEvent re-exports the shared Chrome tracing record so existing
// sim users keep compiling; the encoder itself lives in telemetry and
// is shared with the runtime tracer, so simulated and measured
// timelines are directly comparable in one viewer.
type ChromeEvent = telemetry.ChromeEvent

// ChromeJSON renders the trace in the Chrome tracing / Perfetto JSON
// array format: one thread per pipeline stage plus a network thread.
func (t *Trace) ChromeJSON() ([]byte, error) {
	evs := make([]ChromeEvent, 0, len(t.Events))
	for _, e := range t.Events {
		tid := e.Stage
		if e.Stage < 0 {
			tid = 1 << 16 // network track
		}
		evs = append(evs, ChromeEvent{
			Name: fmt.Sprintf("%s%d", e.Kind, e.Micro),
			Cat:  e.Kind,
			Ph:   "X",
			Ts:   e.Start * 1e6,
			Dur:  (e.End - e.Start) * 1e6,
			Pid:  0,
			Tid:  tid,
		})
	}
	return telemetry.EncodeChromeJSON(evs)
}
