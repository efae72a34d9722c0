package telemetry

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// sampled is a valid, sampled parent: SpanTC records under it.
var sampled = TraceContext{TraceID: 1, SpanID: 1, Sampled: true}

// span opens a child of sampled and returns the closure that ends it.
func span(tr *Tracer, cat, name string, pid, tid int) func() {
	_, end := tr.SpanTC(sampled, cat, name, pid, tid)
	return end
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	span(tr, "cat", "span", 0, 0)()
	tr.Instant("cat", "mark", 0, 0)
	tr.SetProcessName(0, "p")
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded something")
	}
}

func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	tr.SetProcessName(1, "lane 1")
	end := span(tr, "compute", "F0", 1, 2)
	time.Sleep(2 * time.Millisecond)
	end()
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	meta, span := evs[0], evs[1]
	if meta.Ph != "M" || meta.Args["name"] != "lane 1" {
		t.Fatalf("metadata event %+v", meta)
	}
	if span.Ph != "X" || span.Name != "F0" || span.Cat != "compute" || span.Pid != 1 || span.Tid != 2 {
		t.Fatalf("span event %+v", span)
	}
	if span.Dur < 1000 { // ≥ 1 ms in microseconds
		t.Fatalf("span duration %v µs, slept 2 ms", span.Dur)
	}
	if span.Ts < 0 {
		t.Fatalf("negative timestamp %v", span.Ts)
	}
}

func TestTracerConcurrentAppend(t *testing.T) {
	tr := NewTracer()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				span(tr, "cat", "s", i, j)()
			}
		}(i)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("%d events, want 800", tr.Len())
	}
}

func TestTracerChromeJSONRoundTrip(t *testing.T) {
	tr := NewTracer()
	tr.SetProcessName(0, "p0")
	span(tr, "comm", "allreduce", 0, 1)()
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var parsed []map[string]interface{}
	if err := json.Unmarshal(blob, &parsed); err != nil {
		t.Fatalf("trace file is not a JSON array: %v", err)
	}
	if len(parsed) != 2 {
		t.Fatalf("%d events in file, want 2", len(parsed))
	}
	for _, ev := range parsed {
		if ev["ph"] == "" || ev["name"] == "" {
			t.Fatalf("malformed event %v", ev)
		}
	}
}
