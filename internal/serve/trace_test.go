package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/telemetry"
)

func tracedServer(tr *telemetry.Tracer, pid int, device string) *Server {
	cfg := model.Tiny()
	m := model.New(cfg)
	s := NewServer(peft.NewParallel(m, peft.Options{Reduction: 4}), cfg)
	s.SetTracer(tr, pid, device)
	return s
}

func spansByName(evs []telemetry.ChromeEvent) map[string][]telemetry.ChromeEvent {
	out := map[string][]telemetry.ChromeEvent{}
	for _, ev := range evs {
		if ev.Ph == "X" {
			out[ev.Name] = append(out[ev.Name], ev)
		}
	}
	return out
}

// TestClassifyRequestSpanTree drives /classify with an X-Pac-Trace
// header and asserts the server records the op span (child of the
// header context) with a forward child, echoes the header, and stamps
// the trace as the latency-bucket exemplar. No request waits for a swap,
// so there is no wait span.
func TestClassifyRequestSpanTree(t *testing.T) {
	tr := telemetry.NewTracer()
	s := tracedServer(tr, telemetry.PidServe+1, "replica-0")
	h := HandlerFor(s)

	client := telemetry.TraceContext{TraceID: telemetry.NewID(), SpanID: telemetry.NewID(), Sampled: true}
	req := httptest.NewRequest("POST", "/classify",
		bytes.NewBufferString(`{"tokens":[[2,3,4,5]],"user":3}`))
	req.Header.Set(telemetry.TraceHeader, client.HeaderValue())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(telemetry.TraceHeader); got != client.HeaderValue() {
		t.Fatalf("response header %q, want echo of %q", got, client.HeaderValue())
	}

	spans := spansByName(tr.Events())
	op := spans["classify"]
	if len(op) != 1 {
		t.Fatalf("got %d classify spans, want 1", len(op))
	}
	if op[0].Args["trace"] != client.TraceIDString() {
		t.Fatalf("op span trace %v, want %s", op[0].Args["trace"], client.TraceIDString())
	}
	if op[0].Args["parent"] != fmt.Sprintf("%016x", client.SpanID) {
		t.Fatalf("op span parent %v, want %016x", op[0].Args["parent"], client.SpanID)
	}
	if op[0].Args["device"] != "replica-0" {
		t.Fatalf("op span device %v", op[0].Args["device"])
	}
	opSpanID, _ := op[0].Args["span"].(string)
	if fwd := spans["forward"]; len(fwd) != 1 || fwd[0].Args["parent"] != opSpanID {
		t.Fatalf("forward spans %v, want one under op span %s", fwd, opSpanID)
	}
	if wait := spans["wait"]; len(wait) != 0 {
		t.Fatalf("got %d wait spans, want none", len(wait))
	}

	// Latency exemplar: the classify histogram's sampled bucket names
	// this trace.
	if st := s.latClassify.Stats(); st.P99Exemplar != client.TraceIDString() {
		t.Fatalf("latency exemplar %q, want %s", st.P99Exemplar, client.TraceIDString())
	}
	// Exemplars surface in the /stats summary too.
	if _, ok := s.Stats()["classify_seconds"].(map[string]interface{})["exemplars"]; !ok {
		t.Fatal("classify_seconds summary lost its exemplars")
	}
}

// TestCanceledRequestTraced asserts a 499 cancellation still records
// the op span plus a canceled marker on the same trace — tail traces
// must show abandoned requests, not lose them.
func TestCanceledRequestTraced(t *testing.T) {
	tr := telemetry.NewTracer()
	s := tracedServer(tr, telemetry.PidServe+1, "replica-0")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	client := telemetry.TraceContext{TraceID: telemetry.NewID(), SpanID: telemetry.NewID(), Sampled: true}
	ctx = telemetry.ContextWithTrace(ctx, client)
	if _, err := s.ClassifyFor(ctx, AnonUser, [][]int{{1, 2}}, []int{2}); err == nil {
		t.Fatal("canceled request succeeded")
	}
	spans := spansByName(tr.Events())
	if len(spans["classify"]) != 1 {
		t.Fatal("canceled request did not record its op span")
	}
	if len(spans["canceled"]) != 1 {
		t.Fatal("canceled request did not record the canceled marker")
	}
	if spans["canceled"][0].Args["trace"] != client.TraceIDString() {
		t.Fatal("canceled marker lost the trace id")
	}
	if len(spans["forward"]) != 0 {
		t.Fatal("canceled request must not record a forward span")
	}
}

// TestUntracedServerUnchanged pins the fast path: no tracer, no spans,
// no exemplars, headerless responses.
func TestUntracedServerUnchanged(t *testing.T) {
	cfg := model.Tiny()
	m := model.New(cfg)
	s := NewServer(peft.NewParallel(m, peft.Options{Reduction: 4}), cfg)
	if _, err := s.ClassifyFor(context.Background(), AnonUser, [][]int{{1, 2, 3}}, []int{3}); err != nil {
		t.Fatal(err)
	}
	if st := s.latClassify.Stats(); st.P99Exemplar != "" {
		t.Fatalf("untraced server grew an exemplar %q", st.P99Exemplar)
	}
}

// TestMalformedTraceHeaderIgnored asserts a garbage header neither
// fails the request nor leaks into the response.
func TestMalformedTraceHeaderIgnored(t *testing.T) {
	tr := telemetry.NewTracer()
	s := tracedServer(tr, telemetry.PidServe+1, "replica-0")
	h := HandlerFor(s)
	req := httptest.NewRequest("POST", "/classify",
		bytes.NewBufferString(`{"tokens":[[2,3,4,5]]}`))
	req.Header.Set(telemetry.TraceHeader, "not-a-trace")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get(telemetry.TraceHeader); got != "" {
		t.Fatalf("malformed header echoed: %q", got)
	}
	// The request still traces server-side (fresh root).
	if len(spansByName(tr.Events())["classify"]) != 1 {
		t.Fatal("headerless request lost its server-side root span")
	}
}
