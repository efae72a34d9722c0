package main

import (
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pac/internal/telemetry"
)

// pidBench is the Chrome-trace process id of the benchmark's own spans;
// the program's tracer keeps the ids telemetry reserves (lanes, PidDP,
// PidOrch, PidServe).
const pidBench = 9000

// span is one benchmark-side interval around a call into a layer.
type span struct {
	Name   string
	ID     int   // 1-based; 0 means "no span"
	Parent int   // ID of the span that caused this one; 0 for a root
	Op     int64 // request or training-step id shared by one operation's spans; -1 for none
	Tid    int   // client or rank, for the viewer's lanes
	Start  time.Duration
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil recorder, or
// one whose gate is closed, records nothing: the traced run closes the
// gate on alternate blocks of operations to price its own overhead.
type recorder struct {
	t0    time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	r := &recorder{t0: time.Now()}
	r.on.Store(true)
	return r
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// begin opens a span and returns its id (0 when not recording).
func (r *recorder) begin(name string, parent int, op int64, tid int) int {
	if !r.enabled() {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Op: op, Tid: tid, Start: now, End: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records a finished interval, for layers that report a duration
// after the fact (the engines' health reports).
func (r *recorder) add(name string, parent int, op int64, tid int, start, end time.Time) int {
	if !r.enabled() {
		return 0
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Op: op, Tid: tid,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	r.mu.Unlock()
	return id
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// nameTotals is the per-name roll-up of a span set.
type nameTotals struct {
	Count int
	Total time.Duration // sum of durations
	Self  time.Duration // sum of durations minus the part children cover
}

// selfTimes computes, per span name, total and self time. A span's self
// time is its duration minus the union of its children's intervals
// clipped to it, so children that run in parallel are not subtracted
// twice.
func selfTimes(spans []span) map[string]nameTotals {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]nameTotals{}
	for _, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += s.End - s.Start
		t.Self += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = t
	}
	return out
}

// covered returns how much of parent's interval its children cover.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	curS, curE := time.Duration(-1), time.Duration(-1)
	for _, k := range kids {
		s, e := k.Start, k.End
		if s < parent.Start {
			s = parent.Start
		}
		if e > parent.End {
			e = parent.End
		}
		if e <= s {
			continue
		}
		if curE < 0 || s > curE {
			if curE >= 0 {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE >= 0 {
		total += curE - curS
	}
	return total
}

// writeChrome writes the benchmark's spans, followed by whatever the
// program's own tracer recorded through its public seams, as one Chrome
// trace JSON array. The environment stamp rides along as metadata.
func writeChrome(path string, spans []span, progT0 time.Time, prog []telemetry.ChromeEvent, recT0 time.Time, stamp map[string]interface{}) error {
	evs := []telemetry.ChromeEvent{
		{Name: "process_name", Ph: "M", Pid: pidBench, Args: map[string]interface{}{"name": "benchmark spans"}},
		{Name: "environment", Ph: "M", Pid: pidBench, Args: stamp},
	}
	for _, s := range spans {
		evs = append(evs, telemetry.ChromeEvent{
			Name: s.Name, Cat: "bench", Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: pidBench, Tid: s.Tid,
			Args: map[string]interface{}{"id": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	// The program's tracer counts from its own start; shift onto the
	// recorder's clock so both sets line up in the viewer.
	shift := float64(progT0.Sub(recT0).Nanoseconds()) / 1e3
	for _, ev := range prog {
		if ev.Ph == "X" {
			ev.Ts += shift
		}
		evs = append(evs, ev)
	}
	blob, err := telemetry.EncodeChromeJSON(evs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
