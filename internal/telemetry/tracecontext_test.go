package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
)

func TestTraceContextHeaderRoundTrip(t *testing.T) {
	tc := TraceContext{TraceID: 0x1f3a9c, SpanID: 0x04d271, Sampled: true}
	got, ok := ParseTraceContext(tc.HeaderValue())
	if !ok || got != tc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, tc)
	}
	tc.Sampled = false
	got, ok = ParseTraceContext(tc.HeaderValue())
	if !ok || got != tc {
		t.Fatalf("unsampled round trip: got %+v ok=%v, want %+v", got, ok, tc)
	}
}

func TestParseTraceContextRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"zzz",
		"0000000000000000-0000000000000001-1", // zero trace id
		"0123456789abcdef-0123456789abcdef-2", // bad sample flag
		"0123456789abcdef-0123456789abcdef-11",
		"0123456789abcdeg-0123456789abcdef-1", // non-hex
		"0123456789abcdef_0123456789abcdef-1",
	}
	for _, s := range bad {
		if _, ok := ParseTraceContext(s); ok {
			t.Errorf("ParseTraceContext(%q) accepted malformed input", s)
		}
	}
}

func TestNewIDUniqueNonzero(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		id := NewID()
		if id == 0 {
			t.Fatal("NewID returned 0")
		}
		if seen[id] {
			t.Fatalf("NewID collision at %d", i)
		}
		seen[id] = true
	}
}

func TestContextCarriesTrace(t *testing.T) {
	ctx := context.Background()
	if _, ok := TraceFrom(ctx); ok {
		t.Fatal("empty context reported a trace")
	}
	tc := TraceContext{TraceID: 7, SpanID: 9, Sampled: true}
	ctx = ContextWithTrace(ctx, tc)
	got, ok := TraceFrom(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceFrom: got %+v ok=%v", got, ok)
	}
	// A zero context attaches nothing.
	if ctx2 := ContextWithTrace(context.Background(), TraceContext{}); ctx2 != context.Background() {
		t.Fatal("invalid trace context allocated a context")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	payload := []byte("hello frames")
	tc := TraceContext{TraceID: NewID(), SpanID: NewID(), Sampled: true}
	frame := append(AppendEnvelope(nil, tc), payload...)
	got, rest := UnwrapEnvelope(frame)
	if got != tc {
		t.Fatalf("envelope context: got %+v want %+v", got, tc)
	}
	if string(rest) != string(payload) {
		t.Fatalf("envelope payload: got %q want %q", rest, payload)
	}
	// Untraced frames pass through untouched both ways.
	if out := AppendEnvelope(payload, TraceContext{}); &out[0] != &payload[0] || len(out) != len(payload) {
		t.Fatal("invalid context copied or grew the payload")
	}
	got, rest = UnwrapEnvelope(payload)
	if got.Valid() || string(rest) != string(payload) {
		t.Fatalf("bare payload: got %+v %q", got, rest)
	}
	// Short frames and wrong magic fall back to no-envelope.
	for _, b := range [][]byte{nil, {0xFA}, {0xFA, 0xCE}, make([]byte, envLen)} {
		if tc, rest := UnwrapEnvelope(b); tc.Valid() || len(rest) != len(b) {
			t.Fatalf("frame %v misparsed as envelope", b)
		}
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracerCap(8)
	tr.SetProcessName(1, "dev")
	before := mTraceDropped.Value()
	for i := 0; i < 20; i++ {
		tr.Instant("test", fmt.Sprintf("ev%d", i), 1, 0)
	}
	if got := mTraceDropped.Value() - before; got != 12 {
		t.Fatalf("pac_trace_dropped_total moved by %d, want 12", got)
	}
	evs := tr.Events()
	if len(evs) != 9 { // 1 meta + 8 retained spans
		t.Fatalf("Events len = %d, want 9", len(evs))
	}
	if evs[0].Ph != "M" {
		t.Fatal("metadata must survive ring wraparound and come first")
	}
	// Oldest retained is ev12, newest ev19, in order.
	for i, ev := range evs[1:] {
		if want := fmt.Sprintf("ev%d", 12+i); ev.Name != want {
			t.Fatalf("ring order: evs[%d] = %q, want %q", i+1, ev.Name, want)
		}
	}
}

func TestRootSpanTCSamplingAndParentLinks(t *testing.T) {
	tr := NewTracer()
	root, end := tr.RootSpanTC("serve", "request", PidServe, 0)
	if !root.Valid() || !root.Sampled {
		t.Fatalf("default sample rate must sample: %+v", root)
	}
	child, endChild := tr.SpanTC(root, "compute", "forward", PidServe+1, 0)
	if child.TraceID != root.TraceID || child.SpanID == root.SpanID {
		t.Fatalf("child derivation wrong: %+v from %+v", child, root)
	}
	endChild()
	end()
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	// Child recorded first (its closure ran first): parent link matches.
	if evs[0].Args["parent"] != fmt.Sprintf("%016x", root.SpanID) {
		t.Fatalf("child parent arg = %v, want %016x", evs[0].Args["parent"], root.SpanID)
	}
	if evs[0].Args["trace"] != fmt.Sprintf("%016x", root.TraceID) {
		t.Fatal("child trace arg mismatch")
	}
	if _, has := evs[1].Args["parent"]; has {
		t.Fatal("root span must not carry a parent arg")
	}

	// Rate 0 never samples; children inherit the decision silently.
	tr2 := NewTracer()
	tr2.SetSampleRate(0)
	r2, end2 := tr2.RootSpanTC("serve", "request", PidServe, 0)
	if r2.Sampled {
		t.Fatal("rate 0 sampled")
	}
	_, ec2 := tr2.SpanTC(r2, "compute", "forward", PidServe, 0)
	ec2()
	end2()
	if tr2.Len() != 0 {
		t.Fatalf("unsampled trace recorded %d events", tr2.Len())
	}
}

func TestSpanTCNilAndInvalidParent(t *testing.T) {
	var tr *Tracer
	if tc, end := tr.RootSpanTC("c", "n", 0, 0); tc.Valid() {
		t.Fatal("nil tracer minted a trace")
	} else {
		end()
	}
	tr2 := NewTracer()
	tc, end := tr2.SpanTC(TraceContext{}, "c", "n", 0, 0)
	end()
	if tc.Valid() || tr2.Len() != 0 {
		t.Fatal("invalid parent must no-op")
	}
}

func TestRecordSpanAtRetroactive(t *testing.T) {
	tr := NewTracer()
	tc := TraceContext{TraceID: NewID(), SpanID: NewID(), Sampled: true}
	begin := tr.start
	tr.RecordSpanAt(tc, 0, "client", "classify", PidClient, 3, begin, 1500000, map[string]interface{}{"op": "classify"})
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Ts != 0 || evs[0].Dur != 1500 {
		t.Fatalf("retroactive timestamps wrong: ts=%v dur=%v", evs[0].Ts, evs[0].Dur)
	}
	if evs[0].Args["op"] != "classify" {
		t.Fatal("extra args lost")
	}
}

func TestHistogramExemplars(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	h.Observe(0.005) // no exemplar
	h.ObserveTrace(0.05, 0xabc)
	h.ObserveTrace(5, 0xdef) // overflow bucket
	sum := h.Summary()
	ex, ok := sum["exemplars"].(map[string]string)
	if !ok {
		t.Fatalf("Summary missing exemplars: %v", sum)
	}
	if ex["0.1"] != fmt.Sprintf("%016x", 0xabc) || ex["+Inf"] != fmt.Sprintf("%016x", 0xdef) {
		t.Fatalf("exemplars = %v", ex)
	}
	// p99 rank lands in the overflow bucket → its exemplar.
	st := h.Stats()
	if st.P99Exemplar != fmt.Sprintf("%016x", 0xdef) {
		t.Fatalf("P99Exemplar = %q", st.P99Exemplar)
	}
	// JSON stays backward-compatible: no exemplar → field omitted.
	blob, _ := json.Marshal(newHistogram(nil).Stats())
	if string(blob) != `{"count":0,"sum":0,"p50":0,"p95":0,"p99":0}` {
		t.Fatalf("empty HistStats JSON changed: %s", blob)
	}
}

func TestQuantileExemplarFallback(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.1, 1})
	// Mass in bucket 2 (no exemplar), exemplar only in bucket 1.
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	h.ObserveTrace(0.05, 0x123)
	if got := h.quantileExemplar(0.99); got != 0x123 {
		t.Fatalf("fallback exemplar = %x, want 123", got)
	}
	if got := newHistogram(nil).quantileExemplar(0.99); got != 0 {
		t.Fatalf("empty histogram exemplar = %x", got)
	}
}

// TestConcurrentDebugTraceScrape hammers /debug/trace while spans are
// recording — the race detector guards the ring/meta copy under load.
func TestConcurrentDebugTraceScrape(t *testing.T) {
	tr := NewTracerCap(64)
	tr.SetProcessName(PidServe, "router")
	reg := NewRegistry()
	mux := NewDebugMux(reg, tr)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tc, end := tr.RootSpanTC("serve", "request", PidServe, g)
				_, endC := tr.SpanTC(tc, "compute", "forward", PidServe, g)
				endC()
				end()
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
		if rec.Code != 200 {
			t.Fatalf("scrape %d: status %d", i, rec.Code)
		}
		var evs []ChromeEvent
		if err := json.Unmarshal(rec.Body.Bytes(), &evs); err != nil {
			t.Fatalf("scrape %d: invalid JSON: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
