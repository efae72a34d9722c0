// Package health is the online health monitor: it consumes per-step
// reports from the training engines (per-lane-stage and per-rank
// seconds, whole-step wall time) and derives straggler Alerts (a lane
// or rank slower than its peers), drift Alerts (a lane-stage slower
// than its own early baseline) and a whole-step EWMA the supervisor judges its re-plans by. Beside it is a
// crash flight recorder every subsystem appends to for free. An Alert
// that names a lane is what pac-train's -replan-on-drift acts on.
//
// Everything here follows the telemetry package's nil-safe convention:
// a nil *Monitor or nil *Recorder is a no-op sink, so instrumented code
// never guards call sites.
package health

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// Event is one flight-recorder entry. Kinds in use across the codebase:
// "step" (engine step completion), "retry" (transient send retried),
// "fault" (injected fault fired), "rank-failed" (peer declared dead),
// "alert" (monitor alert raised), "snapshot-capture", "snapshot-restore",
// "salvage" (elastic-resume transitions), "dead"/"quarantine" (a device
// sidelined by the supervisor), "replan" (supervisor re-planned), "swap"
// (serving adapter hot-swap).
type Event struct {
	// Seq is the global append order (1-based); the ring keeps the
	// highest Size sequence numbers.
	Seq uint64 `json:"seq"`
	// T is the wall-clock timestamp in Unix nanoseconds.
	T    int64  `json:"t"`
	Kind string `json:"kind"`
	// Lane and Rank locate the event in the device grid when known; -1
	// means not applicable.
	Lane int `json:"lane"`
	Rank int `json:"rank"`
	// Detail is a short free-form label (an op name, a device name, an
	// alert kind), truncated to maxDetailLen bytes at Record time so a
	// runaway description (a long error chain, a huge step list) cannot
	// bloat /debug/flight dumps. Value carries the event's scalar, e.g.
	// seconds.
	Detail string  `json:"detail,omitempty"`
	Value  float64 `json:"value,omitempty"`
}

// maxDetailLen bounds Event.Detail: a ring of Size events is then at
// most a few hundred bytes per entry no matter what callers pass.
const maxDetailLen = 128

// Recorder is a fixed-size lock-free flight recorder: a ring of the
// last Size events. Record is one atomic add plus one atomic pointer
// store — cheap enough for transport retry paths — and never blocks.
// Readers (Events, Dump, ServeHTTP) observe a near-consistent snapshot:
// an entry being overwritten concurrently shows either its old or new
// event, never a torn one.
type Recorder struct {
	seq   atomic.Uint64
	slots []atomic.Pointer[Event]
}

// NewRecorder builds a recorder keeping the last size events. size < 1
// returns nil — which is itself a valid (no-op) recorder.
func NewRecorder(size int) *Recorder {
	if size < 1 {
		return nil
	}
	return &Recorder{slots: make([]atomic.Pointer[Event], size)}
}

// Record appends an event. Safe on a nil receiver (no-op) and safe for
// any number of concurrent writers.
func (r *Recorder) Record(kind string, lane, rank int, detail string, value float64) {
	if r == nil {
		return
	}
	if len(detail) > maxDetailLen {
		// Back the cut off to a rune boundary: detail can carry non-ASCII
		// (checkpoint paths, error text), and slicing mid-rune would emit
		// invalid UTF-8 that json.Marshal mangles in /debug/flight dumps.
		cut := maxDetailLen - 3
		for cut > 0 && !utf8.RuneStart(detail[cut]) {
			cut--
		}
		detail = detail[:cut] + "..."
	}
	seq := r.seq.Add(1)
	ev := &Event{Seq: seq, T: time.Now().UnixNano(), Kind: kind,
		Lane: lane, Rank: rank, Detail: detail, Value: value}
	r.slots[seq%uint64(len(r.slots))].Store(ev)
	mFlightEvents.Inc()
}

// Size returns the ring capacity (0 on nil).
func (r *Recorder) Size() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Recorded returns how many events were ever appended (0 on nil); the
// ring retains min(Recorded, Size) of them.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Load()
}

// Events returns the retained events in append order (nil-safe).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if ev := r.slots[i].Load(); ev != nil {
			out = append(out, *ev)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// flightDump is the JSON schema of a flight-recorder dump; CI validates
// it after curling /debug/flight mid-run.
type flightDump struct {
	Size     int     `json:"size"`
	Recorded uint64  `json:"recorded"`
	Events   []Event `json:"events"`
}

// Dump serializes the ring as indented JSON (nil-safe: an empty dump).
func (r *Recorder) Dump() ([]byte, error) {
	d := flightDump{Size: r.Size(), Recorded: r.Recorded(), Events: r.Events()}
	if d.Events == nil {
		d.Events = []Event{}
	}
	return json.MarshalIndent(d, "", " ")
}

// ServeHTTP exposes the dump as GET /debug/flight on the telemetry mux.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	blob, err := r.Dump()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(blob)
}

// global is the process-wide recorder instrumented code appends to via
// Flight(). It stays nil — every append a no-op — until Enable.
var global atomic.Pointer[Recorder]

// Enable installs a process-wide flight recorder of the given capacity
// and returns it; size < 1 disables recording (Flight() goes back to
// nil).
func Enable(size int) *Recorder {
	r := NewRecorder(size)
	global.Store(r)
	return r
}

// Disable removes the process-wide recorder.
func Disable() { global.Store(nil) }

// Flight returns the process-wide recorder, nil when disabled. Calling
// Record on the nil result is a safe no-op, so use it unconditionally:
//
//	health.Flight().Record("retry", -1, rank, tag, 0)
func Flight() *Recorder { return global.Load() }
