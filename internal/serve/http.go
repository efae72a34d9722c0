package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"pac/internal/generate"
	"pac/internal/telemetry"
)

// Backend is the request-serving surface the HTTP handler binds to: a
// single *Server, or a fleet replica set that routes each request to an
// in-service replica and turns /swap into an orchestrated zero-downtime
// rolling operation.
type Backend interface {
	ClassifyFor(ctx context.Context, user int, enc [][]int, lens []int) ([]int, error)
	GenerateFor(ctx context.Context, user int, enc [][]int, lens []int, opts generate.Options) ([][]int, error)
	SwapCheckpoint(path string) error
	Stats() map[string]interface{}
	WriteMetrics(w io.Writer)
}

// FleetStatuser is the optional Backend extension a replica set
// implements; when present, the handler additionally mounts GET
// /fleet/status with the rollout/journal view.
type FleetStatuser interface {
	FleetStatus() map[string]interface{}
}

// StatusClientClosedRequest is the (nginx-convention) status reported
// when the client abandoned the request before the model ran.
const StatusClientClosedRequest = 499

// HandlerFor exposes a Backend — a single Server or a fleet replica
// set — over HTTP with a small JSON API:
//
//	POST /classify {"tokens": [[...]], "lens": [...], "user": U}  → {"classes": [...]}
//	POST /generate {"tokens": [[...]], "lens": [...], "user": U,
//	                "max_len": N, "temperature": T}               → {"outputs": [[...]]}
//	POST /swap     {"path": "adapters.pack"}                      → {"ok": true}
//	GET  /stats                                                   → {"backend": "...", "served": N, "swaps": N,
//	                                                                 "users": N, "canceled": N,
//	                                                                 "classify_seconds": {...},
//	                                                                 "generate_seconds": {...}}
//	GET  /metrics                                                 → Prometheus text exposition
//
// The histogram summaries carry count, sum, p50/p95/p99 and cumulative
// bucket counts. The optional "user" field attributes the request to a
// user id (pac-loadgen sets it when replaying multi-user traces); omit
// it for anonymous requests. Each request runs under the connection's
// context: a client that disconnects while its request is queued behind
// a weight swap is dropped without counting toward served totals.
//
// It is the network face of the Figure-1 agent: LAN clients (other
// household devices) query the personal LLM that PAC keeps fine-tuning.
func HandlerFor(s Backend) http.Handler {
	mux := http.NewServeMux()

	type seqReq struct {
		Tokens      [][]int `json:"tokens"`
		Lens        []int   `json:"lens"`
		User        int     `json:"user"`
		MaxLen      int     `json:"max_len"`
		Temperature float64 `json:"temperature"`
	}
	decode := func(w http.ResponseWriter, r *http.Request) (*seqReq, bool) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return nil, false
		}
		req := seqReq{User: AnonUser}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return nil, false
		}
		if len(req.Tokens) == 0 {
			http.Error(w, "no tokens", http.StatusBadRequest)
			return nil, false
		}
		if len(req.Lens) == 0 {
			req.Lens = make([]int, len(req.Tokens))
			for i, row := range req.Tokens {
				req.Lens[i] = len(row)
			}
		}
		if len(req.Lens) != len(req.Tokens) {
			http.Error(w, "lens/tokens mismatch", http.StatusBadRequest)
			return nil, false
		}
		// All rows must share one width (the model consumes rectangular
		// batches).
		for _, row := range req.Tokens[1:] {
			if len(row) != len(req.Tokens[0]) {
				http.Error(w, "ragged token rows", http.StatusBadRequest)
				return nil, false
			}
		}
		return &req, true
	}
	writeJSON := func(w http.ResponseWriter, v interface{}) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(v)
	}
	writeErr := func(w http.ResponseWriter, err error) {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			http.Error(w, err.Error(), StatusClientClosedRequest)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
	// traceCtx lifts an X-Pac-Trace request header into the context and
	// echoes it on the response, so a traced client can correlate even a
	// 499 it never saw a body for. Malformed headers are ignored.
	traceCtx := func(w http.ResponseWriter, r *http.Request) context.Context {
		ctx := r.Context()
		if hv := r.Header.Get(telemetry.TraceHeader); hv != "" {
			if tc, ok := telemetry.ParseTraceContext(hv); ok {
				ctx = telemetry.ContextWithTrace(ctx, tc)
				w.Header().Set(telemetry.TraceHeader, hv)
			}
		}
		return ctx
	}

	mux.HandleFunc("/classify", func(w http.ResponseWriter, r *http.Request) {
		req, ok := decode(w, r)
		if !ok {
			return
		}
		classes, err := s.ClassifyFor(traceCtx(w, r), req.User, req.Tokens, req.Lens)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, map[string]interface{}{"classes": classes})
	})

	mux.HandleFunc("/generate", func(w http.ResponseWriter, r *http.Request) {
		req, ok := decode(w, r)
		if !ok {
			return
		}
		out, err := s.GenerateFor(traceCtx(w, r), req.User, req.Tokens, req.Lens,
			generate.Options{MaxLen: req.MaxLen, Temperature: req.Temperature})
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, map[string]interface{}{"outputs": out})
	})

	mux.HandleFunc("/swap", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		var req struct {
			Path string `json:"path"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Path == "" {
			http.Error(w, "bad request", http.StatusBadRequest)
			return
		}
		if err := s.SwapCheckpoint(req.Path); err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		writeJSON(w, map[string]bool{"ok": true})
	})

	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})

	if fs, ok := s.(FleetStatuser); ok {
		mux.HandleFunc("/fleet/status", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, fs.FleetStatus())
		})
	}

	return mux
}
