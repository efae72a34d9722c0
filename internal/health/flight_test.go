package health

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"unicode/utf8"
)

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record("step", 0, 0, "", 0) // must not panic
	if r.Size() != 0 || r.Recorded() != 0 || r.Events() != nil {
		t.Fatalf("nil recorder not empty: size=%d recorded=%d", r.Size(), r.Recorded())
	}
	blob, err := r.Dump()
	if err != nil {
		t.Fatalf("nil Dump: %v", err)
	}
	var d struct {
		Size     int     `json:"size"`
		Recorded uint64  `json:"recorded"`
		Events   []Event `json:"events"`
	}
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatalf("nil Dump not JSON: %v", err)
	}
	if d.Events == nil {
		t.Fatal("events must serialize as [], not null")
	}
	if NewRecorder(0) != nil || NewRecorder(-3) != nil {
		t.Fatal("size<1 must return nil recorder")
	}
}

func TestRecorderWraparound(t *testing.T) {
	r := NewRecorder(4)
	for i := 1; i <= 10; i++ {
		r.Record("step", i, -1, "", float64(i))
	}
	if got := r.Recorded(); got != 10 {
		t.Fatalf("recorded = %d, want 10", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// The ring keeps the highest sequence numbers, in append order.
	for i, ev := range evs {
		want := uint64(7 + i)
		if ev.Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	done := make(chan struct{})
	// Concurrent readers while 8 writers hammer the ring; the race
	// detector is the real assertion here.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				if _, err := r.Dump(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < 8; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				r.Record("step", w, i, "x", 1)
			}
		}(w)
	}
	writers.Wait()
	close(done)
	wg.Wait()
	if got := r.Recorded(); got != 8*500 {
		t.Fatalf("recorded = %d, want %d", got, 8*500)
	}
	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("retained %d, want 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not in ascending seq order at %d", i)
		}
	}
}

func TestFlightGlobal(t *testing.T) {
	defer Disable()
	if Flight() != nil {
		t.Fatal("global recorder must start disabled")
	}
	Flight().Record("step", 0, 0, "", 0) // no-op, must not panic
	r := Enable(8)
	if r == nil || Flight() != r {
		t.Fatal("Enable must install and return the recorder")
	}
	Flight().Record("alert", 1, -1, "straggler", 3.2)
	if got := r.Recorded(); got != 1 {
		t.Fatalf("recorded = %d, want 1", got)
	}
	Disable()
	if Flight() != nil {
		t.Fatal("Disable must clear the global recorder")
	}
}

func TestRecorderServeHTTP(t *testing.T) {
	r := NewRecorder(8)
	r.Record("snapshot-capture", -1, -1, "epoch 0", 0)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/flight", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content-type %q", ct)
	}
	var d flightDump
	if err := json.Unmarshal(rec.Body.Bytes(), &d); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if d.Size != 8 || d.Recorded != 1 || len(d.Events) != 1 {
		t.Fatalf("dump = %+v", d)
	}
	if d.Events[0].Kind != "snapshot-capture" || d.Events[0].Detail != "epoch 0" {
		t.Fatalf("event = %+v", d.Events[0])
	}
}

func TestRecorderDetailBounded(t *testing.T) {
	r := NewRecorder(4)
	long := make([]byte, 4096)
	for i := range long {
		long[i] = 'x'
	}
	r.Record("fleet", -1, -1, string(long), 1)
	evs := r.Events()
	if len(evs) != 1 {
		t.Fatalf("events: %d", len(evs))
	}
	if got := len(evs[0].Detail); got > maxDetailLen {
		t.Fatalf("detail not bounded: %d bytes > %d", got, maxDetailLen)
	}
	if evs[0].Detail[:maxDetailLen-3] != string(long[:maxDetailLen-3]) {
		t.Fatal("truncation lost the detail prefix")
	}
	// A detail exactly at the bound is kept verbatim.
	r.Record("fleet", -1, -1, string(long[:maxDetailLen]), 1)
	evs = r.Events()
	if got := evs[len(evs)-1].Detail; len(got) != maxDetailLen || got != string(long[:maxDetailLen]) {
		t.Fatalf("at-bound detail modified: %d bytes", len(got))
	}
}

func TestRecorderDetailTruncationRuneSafe(t *testing.T) {
	r := NewRecorder(4)
	// Multi-byte runes (3 bytes each): whatever offset the byte cut
	// lands on, the kept prefix must stay valid UTF-8 — step IDs and
	// error text can carry non-ASCII checkpoint paths.
	for shift := 0; shift < 3; shift++ {
		// The ASCII prefix slides the byte-offset cut across every
		// possible position inside a 3-byte rune.
		r.Record("fleet", -1, -1, strings.Repeat("x", shift)+strings.Repeat("チ", maxDetailLen), 1)
	}
	for _, ev := range r.Events() {
		if len(ev.Detail) > maxDetailLen {
			t.Fatalf("detail not bounded: %d bytes", len(ev.Detail))
		}
		if !utf8.ValidString(ev.Detail) {
			t.Fatalf("truncation split a rune: %q", ev.Detail)
		}
		if !strings.HasSuffix(ev.Detail, "...") {
			t.Fatalf("truncated detail missing ellipsis: %q", ev.Detail)
		}
	}
}
