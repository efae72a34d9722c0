// Package traceanalysis reconstructs causal span trees from a Chrome
// JSON trace dump (the telemetry.Tracer export) and computes the
// critical path and per-device time accounting behind each traced
// request or training step. It is the offline half of the tracing
// pipeline: the runtime records spans with trace/span/parent IDs in
// Args; this package turns the flat event list back into trees and
// answers "where did the p99 request spend its time".
package traceanalysis

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"pac/internal/telemetry"
)

// Span is one recorded interval, hydrated from a ChromeEvent with
// trace/span Args. Times are microseconds on the recording process'
// tracer clock.
type Span struct {
	Trace, ID, Parent uint64
	Name, Cat         string
	Pid, Tid          int
	Start, End        float64
	Args              map[string]interface{}
	Children          []*Span
}

// Dur returns the span length in microseconds.
func (s *Span) Dur() float64 { return s.End - s.Start }

// Tree is one trace's span forest. Roots holds spans with no parent in
// the dump — normally one (the client or step root), but a dump that
// only captured one process of a distributed trace yields orphan
// subtrees, which stay analyzable on their own.
type Tree struct {
	TraceID uint64
	Spans   []*Span // all spans, sorted by start time
	Roots   []*Span // sorted by duration, longest first
}

// Root returns the longest rootless span — the request or step as its
// originator saw it. Nil for an empty tree.
func (t *Tree) Root() *Span {
	if len(t.Roots) == 0 {
		return nil
	}
	return t.Roots[0]
}

// Dump is a parsed trace file: the causal trees plus the track-name
// metadata and a count of plain (untraced) spans that carry no trace
// context.
type Dump struct {
	Trees       []*Tree // sorted by root duration, longest first
	ProcNames   map[int]string
	ThreadNames map[[2]int]string
	Untraced    int
}

// Tree returns the tree for a trace ID, or nil.
func (d *Dump) Tree(trace uint64) *Tree {
	for _, t := range d.Trees {
		if t.TraceID == trace {
			return t
		}
	}
	return nil
}

// ParseHexID parses a 16-digit hex trace/span ID (the dump's Args
// encoding).
func ParseHexID(s string) (uint64, bool) {
	v, err := strconv.ParseUint(s, 16, 64)
	return v, err == nil && v != 0
}

func argHex(args map[string]interface{}, key string) (uint64, bool) {
	s, _ := args[key].(string)
	if s == "" {
		return 0, false
	}
	return ParseHexID(s)
}

// Parse decodes a Chrome JSON event array.
func Parse(blob []byte) ([]telemetry.ChromeEvent, error) {
	var evs []telemetry.ChromeEvent
	if err := json.Unmarshal(blob, &evs); err != nil {
		return nil, fmt.Errorf("traceanalysis: decode: %w", err)
	}
	return evs, nil
}

// Build reconstructs span trees from a flat event list. Duplicate span
// IDs within a trace (replayed transport frames, double exports) keep
// the first occurrence; the duplicate is dropped rather than forking
// the tree.
func Build(evs []telemetry.ChromeEvent) *Dump {
	d := &Dump{ProcNames: map[int]string{}, ThreadNames: map[[2]int]string{}}
	byTrace := map[uint64]map[uint64]*Span{}
	for _, ev := range evs {
		switch ev.Ph {
		case "M":
			name, _ := ev.Args["name"].(string)
			switch ev.Name {
			case "process_name":
				d.ProcNames[ev.Pid] = name
			case "thread_name":
				d.ThreadNames[[2]int{ev.Pid, ev.Tid}] = name
			}
			continue
		case "X":
		default:
			continue // instants and counters don't shape the tree
		}
		trace, ok := argHex(ev.Args, "trace")
		if !ok {
			d.Untraced++
			continue
		}
		id, ok := argHex(ev.Args, "span")
		if !ok {
			d.Untraced++
			continue
		}
		spans := byTrace[trace]
		if spans == nil {
			spans = map[uint64]*Span{}
			byTrace[trace] = spans
		}
		if _, dup := spans[id]; dup {
			continue
		}
		parent, _ := argHex(ev.Args, "parent")
		spans[id] = &Span{
			Trace: trace, ID: id, Parent: parent,
			Name: ev.Name, Cat: ev.Cat, Pid: ev.Pid, Tid: ev.Tid,
			Start: ev.Ts, End: ev.Ts + ev.Dur, Args: ev.Args,
		}
	}
	for trace, spans := range byTrace {
		t := &Tree{TraceID: trace}
		for _, s := range spans {
			t.Spans = append(t.Spans, s)
			if p := spans[s.Parent]; p != nil && p != s {
				p.Children = append(p.Children, s)
			} else {
				t.Roots = append(t.Roots, s)
			}
		}
		sort.Slice(t.Spans, func(i, j int) bool { return t.Spans[i].Start < t.Spans[j].Start })
		for _, s := range t.Spans {
			sort.Slice(s.Children, func(i, j int) bool { return s.Children[i].Start < s.Children[j].Start })
		}
		sort.Slice(t.Roots, func(i, j int) bool { return t.Roots[i].Dur() > t.Roots[j].Dur() })
		d.Trees = append(d.Trees, t)
	}
	sort.Slice(d.Trees, func(i, j int) bool {
		ri, rj := d.Trees[i].Root(), d.Trees[j].Root()
		if ri.Dur() != rj.Dur() {
			return ri.Dur() > rj.Dur()
		}
		return d.Trees[i].TraceID < d.Trees[j].TraceID
	})
	return d
}

// Segment is one tile of a critical path: [Start, End] attributed to
// Span's own work (no on-path child covers it). Tiles partition the
// root interval exactly, so their durations sum to the root duration.
type Segment struct {
	Span       *Span
	Start, End float64
}

// Dur returns the segment length in microseconds.
func (g Segment) Dur() float64 { return g.End - g.Start }

// CriticalPath walks the tree backward from the root's end, descending
// into the child whose interval reaches latest at each point, and
// returns chronological self-time segments tiling [root.Start,
// root.End]. Gaps no child covers are the owning span's own time —
// for a request that includes transport and queueing; for a pipeline
// stage, compute between neighbor hand-offs.
func CriticalPath(root *Span) []Segment {
	var out []Segment
	var walk func(s *Span, lo, hi float64)
	walk = func(s *Span, lo, hi float64) {
		kids := append([]*Span(nil), s.Children...)
		sort.Slice(kids, func(i, j int) bool { return kids[i].End > kids[j].End })
		cur := hi
		for _, k := range kids {
			kend, kstart := k.End, k.Start
			if kend > cur {
				kend = cur
			}
			if kstart < lo {
				kstart = lo
			}
			if kend <= lo || kstart >= cur || kend <= kstart {
				continue
			}
			if cur > kend {
				out = append(out, Segment{Span: s, Start: kend, End: cur})
			}
			walk(k, kstart, kend)
			cur = kstart
			if cur <= lo {
				break
			}
		}
		if cur > lo {
			out = append(out, Segment{Span: s, Start: lo, End: cur})
		}
	}
	if root == nil || root.End <= root.Start {
		return nil
	}
	walk(root, root.Start, root.End)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// LaneStat is one (pid, tid) track's occupancy inside an analysis
// window: merged busy time from the tree's spans, and the idle bubble
// (window minus busy).
type LaneStat struct {
	Pid, Tid       int
	Spans          int
	BusyUS, IdleUS float64
}

// LaneStats computes per-track busy/idle accounting for the tree's
// spans clipped to the window [root.Start, root.End]. Overlapping
// spans on one track (nested parent/child) are merged, not
// double-counted.
func (t *Tree) LaneStats(root *Span) []LaneStat {
	if root == nil || root.End <= root.Start {
		return nil
	}
	type iv struct{ lo, hi float64 }
	lanes := map[[2]int][]iv{}
	counts := map[[2]int]int{}
	for _, s := range t.Spans {
		lo, hi := s.Start, s.End
		if lo < root.Start {
			lo = root.Start
		}
		if hi > root.End {
			hi = root.End
		}
		if hi <= lo {
			continue
		}
		key := [2]int{s.Pid, s.Tid}
		lanes[key] = append(lanes[key], iv{lo, hi})
		counts[key]++
	}
	window := root.End - root.Start
	var out []LaneStat
	for key, ivs := range lanes {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		busy, curLo, curHi := 0.0, ivs[0].lo, ivs[0].hi
		for _, v := range ivs[1:] {
			if v.lo > curHi {
				busy += curHi - curLo
				curLo, curHi = v.lo, v.hi
				continue
			}
			if v.hi > curHi {
				curHi = v.hi
			}
		}
		busy += curHi - curLo
		out = append(out, LaneStat{
			Pid: key[0], Tid: key[1], Spans: counts[key],
			BusyUS: busy, IdleUS: window - busy,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pid != out[j].Pid {
			return out[i].Pid < out[j].Pid
		}
		return out[i].Tid < out[j].Tid
	})
	return out
}
