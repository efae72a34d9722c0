package sim

import (
	"encoding/json"
	"sort"
	"testing"
)

func tracedRun(t *testing.T, gpipe bool) (*Trace, PipelineConfig) {
	t.Helper()
	tr := &Trace{}
	cfg := uniformPipeline(3, 4, 1, 2)
	cfg.Stages[0].TxBytes = 1e6
	cfg.Stages[1].TxBytes = 1e6
	cfg.BytesPerSec = 1e7
	cfg.GPipe = gpipe
	cfg.Trace = tr
	Pipeline(cfg)
	return tr, cfg
}

func TestTraceCoversAllTasks(t *testing.T) {
	tr, cfg := tracedRun(t, false)
	counts := map[string]int{}
	for _, e := range tr.Events {
		counts[e.Kind]++
		if e.End < e.Start {
			t.Fatalf("negative-duration event %+v", e)
		}
	}
	S, M := len(cfg.Stages), cfg.Micro
	if counts["F"] != S*M || counts["B"] != S*M {
		t.Fatalf("F=%d B=%d want %d each", counts["F"], counts["B"], S*M)
	}
	// Transfers: forward (S-1)×M plus backward (S-1)×M.
	if counts["TX"] != 2*(S-1)*M {
		t.Fatalf("TX=%d want %d", counts["TX"], 2*(S-1)*M)
	}
}

// byStart returns the trace's events ordered by start time.
func byStart(tr *Trace) []TraceEvent {
	out := append([]TraceEvent(nil), tr.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

func TestTraceNoOverlapPerStage(t *testing.T) {
	for _, gpipe := range []bool{false, true} {
		tr, cfg := tracedRun(t, gpipe)
		perStage := map[int][]TraceEvent{}
		for _, e := range byStart(tr) {
			if e.Stage >= 0 {
				perStage[e.Stage] = append(perStage[e.Stage], e)
			}
		}
		for s, evs := range perStage {
			for i := 1; i < len(evs); i++ {
				if evs[i].Start < evs[i-1].End-1e-9 {
					t.Fatalf("gpipe=%v stage %d: overlapping events %+v / %+v", gpipe, s, evs[i-1], evs[i])
				}
			}
		}
		_ = cfg
	}
}

func TestTraceSharedLANSerializesTransfers(t *testing.T) {
	tr := &Trace{}
	cfg := uniformPipeline(3, 4, 1, 1)
	cfg.Stages[0].TxBytes = 1e6
	cfg.Stages[1].TxBytes = 1e6
	cfg.BytesPerSec = 1e6 // 1s per transfer — contention matters
	cfg.SharedLAN = true
	cfg.Trace = tr
	Pipeline(cfg)
	var tx []TraceEvent
	for _, e := range byStart(tr) {
		if e.Kind == "TX" {
			tx = append(tx, e)
		}
	}
	for i := 1; i < len(tx); i++ {
		if tx[i].Start < tx[i-1].End-1e-9 {
			t.Fatalf("shared-LAN transfers overlap: %+v / %+v", tx[i-1], tx[i])
		}
	}
}

func TestChromeJSONWellFormed(t *testing.T) {
	tr, _ := tracedRun(t, false)
	blob, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]interface{}
	if err := json.Unmarshal(blob, &parsed); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(parsed) != len(tr.Events) {
		t.Fatalf("%d JSON events vs %d trace events", len(parsed), len(tr.Events))
	}
	for _, ev := range parsed {
		if ev["ph"] != "X" || ev["dur"] == nil {
			t.Fatalf("malformed chrome event %v", ev)
		}
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	cfg := uniformPipeline(2, 2, 1, 1)
	cfg.Trace = nil
	Pipeline(cfg) // must not panic
}
