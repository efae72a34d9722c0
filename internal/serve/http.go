package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"pac/internal/generate"
	"pac/internal/telemetry"
)

// StatusClientClosedRequest is the (nginx-convention) status reported
// when the client abandoned the request before the model ran.
const StatusClientClosedRequest = 499

// maxBodyBytes bounds every POST body. It is over 100× the largest
// request the serving benchmark sends, so only a client trying to make
// the process allocate without bound meets it.
const maxBodyBytes = 1 << 20

// decodeBody JSON-decodes a POST body of at most maxBodyBytes into v. When
// it cannot, it answers the request itself (405, 413 or 400) and reports
// false.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("request body over %d bytes", maxBodyBytes), http.StatusRequestEntityTooLarge)
		return false
	case err != nil:
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// HandlerFor exposes a Server over HTTP with a small JSON API:
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
// it for anonymous requests. A POST body over 1 MiB is answered 413;
// reading stops at the limit. Each request runs under the
// connection's context: a client that disconnects before its request
// reaches the model is dropped without counting toward served totals.
//
// It is the network face of the Figure-1 agent: LAN clients (other
// household devices) query the personal LLM that PAC keeps fine-tuning.
func HandlerFor(s *Server) http.Handler {
	mux := http.NewServeMux()

	type seqReq struct {
		Tokens      [][]int `json:"tokens"`
		Lens        []int   `json:"lens"`
		User        int     `json:"user"`
		MaxLen      int     `json:"max_len"`
		Temperature float64 `json:"temperature"`
	}
	decode := func(w http.ResponseWriter, r *http.Request) (*seqReq, bool) {
		req := seqReq{User: AnonUser}
		if !decodeBody(w, r, &req) {
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
		var req struct {
			Path string `json:"path"`
		}
		if !decodeBody(w, r, &req) {
			return
		}
		if req.Path == "" {
			http.Error(w, "bad request: no path", http.StatusBadRequest)
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

	return mux
}
