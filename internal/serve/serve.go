// Package serve hosts a personal LLM for inference while PAC fine-tunes
// it — the two halves of the paper's Figure 1 agent. The server answers
// classification and generation requests from the current side network
// and hot-swaps adapters (from a live Framework or a checkpoint file)
// without making a request wait.
package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pac/internal/checkpoint"
	"pac/internal/generate"
	"pac/internal/health"
	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/telemetry"
	"pac/internal/tensor"
)

// memInflight tracks the activation working set of requests currently
// executing a forward pass (estimated as tokens × hidden × 4 bytes —
// the per-layer tap footprint; exact buffer sizes are the tensor
// pool's business). Reserved after the cancellation check (admit), so
// canceled requests never hold inflight bytes, and released when the
// request returns.
var memInflight = memledger.Default().Account("serve.inflight")

// inflightBytes estimates one request's activation working set.
func inflightBytes(enc [][]int, hidden int) int64 {
	tokens := 0
	for _, row := range enc {
		tokens += len(row)
	}
	return int64(tokens) * int64(hidden) * 4
}

// Server hosts one Parallel Adapters side network over a frozen
// backbone. The side network sits behind an atomic pointer: a request
// loads it once and uses that one for its whole forward or decode, and a
// swap clones it, loads the clone and publishes it with one store. So no
// request waits for a swap and no swap waits for a request; swaps
// serialize among themselves only.
//
// Serving metrics live in a per-server registry (not the process-wide
// telemetry.Default()) so each server's /stats and /metrics report only
// its own traffic — several servers can coexist in one process without
// cross-talk.
type Server struct {
	side   atomic.Pointer[peft.Parallel]
	swapMu sync.Mutex // writers only: two swaps never clone one base
	cfg    model.Config

	reg         *telemetry.Registry
	served      *telemetry.Counter
	swapped     *telemetry.Counter
	canceled    *telemetry.Counter
	latClassify *telemetry.Histogram
	latGenerate *telemetry.Histogram

	// Per-user request attribution: which users this server actually
	// serves, fed by the load harness and the adapter-routing work that
	// builds on it. AnonUser requests are not attributed.
	umu        sync.Mutex
	userServed map[int]int64

	// Causal tracing (SetTracer): requests record a span tree — the op
	// span with a forward (model compute) child on the tracePid track —
	// parented under the trace context in ctx (the X-Pac-Trace header).
	// Nil tracer keeps the request path exactly as fast as before: one
	// pointer check, no context lookups.
	tracer      *telemetry.Tracer
	tracePid    int
	traceDevice string
}

// AnonUser marks a request with no user attribution.
const AnonUser = -1

// NewServer serves side network p, whose backbone must match cfg. The
// server owns p from here on: change its weights through UpdateWeights
// or SwapCheckpoint, never in place.
func NewServer(p *peft.Parallel, cfg model.Config) *Server {
	reg := telemetry.NewRegistry()
	reg.Help("pac_serve_served_total", "Sequences answered.")
	reg.Help("pac_serve_swaps_total", "Adapter hot-swaps performed.")
	reg.Help("pac_serve_request_seconds", "Model-invocation latency per API request.")
	reg.Help("pac_serve_canceled_total", "Requests abandoned before the model ran (context canceled).")
	s := &Server{
		cfg:         cfg,
		reg:         reg,
		served:      reg.Counter("pac_serve_served_total"),
		swapped:     reg.Counter("pac_serve_swaps_total"),
		canceled:    reg.Counter("pac_serve_canceled_total"),
		latClassify: reg.Histogram("pac_serve_request_seconds", nil, "op", "classify"),
		latGenerate: reg.Histogram("pac_serve_request_seconds", nil, "op", "generate"),
		userServed:  make(map[int]int64),
	}
	s.side.Store(p)
	return s
}

// SetTracer enables request tracing: spans land on the pid track
// labeled device (telemetry.PidServe conventions). Call before serving
// traffic; device also stamps each compute span's Args so pac-trace
// attributes per-stage time to a concrete server.
func (s *Server) SetTracer(tr *telemetry.Tracer, pid int, device string) {
	s.tracer = tr
	s.tracePid = pid
	s.traceDevice = device
	tr.SetProcessName(pid, device)
}

// requestSpan opens the op span for a traced request: a child of the
// context's trace (the X-Pac-Trace header) when present, a fresh
// server-side root otherwise — uninstrumented clients still get
// server-side trees.
func (s *Server) requestSpan(ctx context.Context, op string) (telemetry.TraceContext, func()) {
	if parent, ok := telemetry.TraceFrom(ctx); ok {
		return s.tracer.SpanTCArgs(parent, "serve", op, s.tracePid, 0,
			map[string]interface{}{"device": s.traceDevice})
	}
	return s.tracer.RootSpanTC("serve", op, s.tracePid, 0)
}

// attribute credits n served sequences to user (AnonUser is skipped).
func (s *Server) attribute(user int, n int) {
	if user < 0 {
		return
	}
	s.umu.Lock()
	s.userServed[user] += int64(n)
	s.umu.Unlock()
}

// Users returns the number of distinct attributed users served so far.
func (s *Server) Users() int {
	s.umu.Lock()
	defer s.umu.Unlock()
	return len(s.userServed)
}

// UserCounts returns a copy of the per-user served totals.
func (s *Server) UserCounts() map[int]int64 {
	s.umu.Lock()
	defer s.umu.Unlock()
	out := make(map[int]int64, len(s.userServed))
	for u, n := range s.userServed {
		out[u] = n
	}
	return out
}

// Canceled returns how many requests were abandoned before the model ran.
func (s *Server) Canceled() int64 { return s.canceled.Value() }

// errInvalidRequest marks a request whose tokens or lengths the model
// cannot take; the HTTP handler answers it 400.
var errInvalidRequest = errors.New("serve: invalid request")

// validate rejects what would index past the embedding table, the
// position table or a row: every row holds 1..MaxSeq ids in
// [0, Vocab), and lens[i] counts a prefix of row i.
func (s *Server) validate(enc [][]int, lens []int) error {
	if len(lens) != len(enc) {
		return fmt.Errorf("%w: %d lens for %d rows", errInvalidRequest, len(lens), len(enc))
	}
	for i, row := range enc {
		if len(row) == 0 || len(row) > s.cfg.MaxSeq {
			return fmt.Errorf("%w: row %d has %d tokens, want 1..%d", errInvalidRequest, i, len(row), s.cfg.MaxSeq)
		}
		if lens[i] < 0 || lens[i] > len(row) {
			return fmt.Errorf("%w: lens[%d] = %d, row has %d tokens", errInvalidRequest, i, lens[i], len(row))
		}
		for _, id := range row {
			if id < 0 || id >= s.cfg.Vocab {
				return fmt.Errorf("%w: token id %d outside [0, %d)", errInvalidRequest, id, s.cfg.Vocab)
			}
		}
	}
	return nil
}

// admit is what every request passes before the model runs: the token
// check (a request it fails holds and counts nothing), the op span, a
// cancellation check, and the in-flight bytes. It hands back the side
// network the request runs on, loaded once here. On success the caller
// defers done, which undoes the rest in reverse; an abandoned request is
// counted, marked on its trace and left holding nothing.
func (s *Server) admit(ctx context.Context, op string, enc [][]int, lens []int) (side *peft.Parallel, rtc telemetry.TraceContext, done func(), err error) {
	if err = s.validate(enc, lens); err != nil {
		return nil, rtc, nil, err
	}
	endSpan := func() {}
	if s.tracer != nil {
		rtc, endSpan = s.requestSpan(ctx, op)
	}
	if err = ctx.Err(); err != nil {
		s.canceled.Inc()
		s.tracer.InstantTC(rtc, "serve", "canceled", s.tracePid, 0)
		endSpan()
		return nil, rtc, nil, err
	}
	inflight := inflightBytes(enc, s.cfg.Hidden)
	memInflight.Reserve(inflight)
	return s.side.Load(), rtc, func() {
		memInflight.Release(inflight)
		endSpan()
	}, nil
}

// ClassifyFor returns the argmax class per input sequence, attributed
// to user (AnonUser for none): the load harness and adapter routing
// track which users a server serves. A canceled context aborts before
// the model runs (the request does not count toward served totals);
// cancellation cannot interrupt an already running forward pass.
func (s *Server) ClassifyFor(ctx context.Context, user int, enc [][]int, lens []int) ([]int, error) {
	t0 := time.Now()
	side, rtc, done, err := s.admit(ctx, "classify", enc, lens)
	if err != nil {
		return nil, err
	}
	defer done()
	dec := make([][]int, len(enc))
	for i := range dec {
		dec[i] = []int{0}
	}
	endFwd := s.forwardSpan(rtc)
	res := side.Forward(enc, dec, lens, false)
	endFwd()
	s.served.Add(int64(len(enc)))
	s.attribute(user, len(enc))
	s.observeLatency(s.latClassify, time.Since(t0).Seconds(), rtc)
	out := tensor.ArgMaxRows(res.Logits.Value)
	res.Release(res.Logits)
	return out, nil
}

// GenerateFor decodes responses for the inputs (LM-configured models
// only), attributed to user, through the KV cache
// (generate.DecodeParallel: the encoder and the side network's encoder
// half once, then one decoder row per token), which returns
// generate.Decode's tokens bit for bit. Context semantics match
// ClassifyFor: cancellation before the decode starts aborts without
// counting the request as served.
func (s *Server) GenerateFor(ctx context.Context, user int, enc [][]int, lens []int, opts generate.Options) ([][]int, error) {
	if !s.cfg.LM {
		return nil, fmt.Errorf("serve: model is not LM-configured")
	}
	t0 := time.Now()
	side, rtc, done, err := s.admit(ctx, "generate", enc, lens)
	if err != nil {
		return nil, err
	}
	defer done()
	endFwd := s.forwardSpan(rtc)
	out, err := generate.DecodeParallel(side, enc, lens, opts)
	endFwd()
	if err != nil {
		return nil, err
	}
	s.served.Add(int64(len(enc)))
	s.attribute(user, len(enc))
	s.observeLatency(s.latGenerate, time.Since(t0).Seconds(), rtc)
	return out, nil
}

// forwardSpan brackets the model invocation — the per-device compute
// stage of a request's causal tree.
func (s *Server) forwardSpan(rtc telemetry.TraceContext) func() {
	if s.tracer == nil {
		return func() {}
	}
	_, end := s.tracer.SpanTCArgs(rtc, "compute", "forward", s.tracePid, 0,
		map[string]interface{}{"device": s.traceDevice})
	return end
}

// observeLatency records a request latency, stamping the trace ID as
// the bucket exemplar when the request was sampled.
func (s *Server) observeLatency(h *telemetry.Histogram, sec float64, rtc telemetry.TraceContext) {
	if rtc.Valid() && rtc.Sampled {
		h.ObserveTrace(sec, rtc.TraceID)
		return
	}
	h.Observe(sec)
}

// swap publishes a new side network: a clone of the current one after
// load has filled it. A failed load publishes nothing. Requests already
// running keep the side network they loaded; the next one loads the new.
func (s *Server) swap(load func(*peft.Parallel) error) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	next := s.side.Load().Clone()
	if err := load(next); err != nil {
		return err
	}
	s.side.Store(next)
	s.swapped.Inc()
	return nil
}

// UpdateWeights installs new trainable parameters (e.g. pushed from a
// PAC framework after a fine-tuning round). The flat layout must match
// the side network's Trainable() enumeration.
func (s *Server) UpdateWeights(flat []float32) {
	_ = s.swap(func(p *peft.Parallel) error { // cannot fail: a bad length panics
		nn.UnflattenParams(p.Trainable(), flat)
		return nil
	})
	health.Flight().Record("swap", -1, -1, "weights", float64(len(flat)))
}

// SwapCheckpoint hot-loads adapters from a checkpoint file. The file
// must pass every check checkpoint.Load makes (technique kind, model
// fingerprint, tensor count and shapes) before anything is published.
func (s *Server) SwapCheckpoint(path string) error {
	err := s.swap(func(p *peft.Parallel) error {
		_, err := checkpoint.Load(path, p, s.cfg)
		return err
	})
	if err != nil {
		return err
	}
	health.Flight().Record("swap", -1, -1, "checkpoint "+path, 0)
	return nil
}

// SnapshotWeights captures the current trainable parameters as one
// flat vector. A published side network is never written again, so the
// capture is consistent without a lock.
func (s *Server) SnapshotWeights() []float32 {
	return nn.FlattenParams(s.side.Load().Trainable())
}

// Served returns the number of sequences answered.
func (s *Server) Served() int64 { return s.served.Value() }

// Swaps returns the number of weight swaps performed.
func (s *Server) Swaps() int64 { return s.swapped.Value() }

// Stats returns the JSON-shaped snapshot GET /stats serves.
func (s *Server) Stats() map[string]interface{} {
	return map[string]interface{}{
		"backend":          tensor.ActiveBackend().Name(),
		"served":           s.Served(),
		"swaps":            s.Swaps(),
		"users":            s.Users(),
		"canceled":         s.Canceled(),
		"classify_seconds": s.latClassify.Summary(),
		"generate_seconds": s.latGenerate.Summary(),
	}
}

// WriteMetrics writes the server's Prometheus text exposition.
func (s *Server) WriteMetrics(w io.Writer) { s.reg.WritePrometheus(w) }
