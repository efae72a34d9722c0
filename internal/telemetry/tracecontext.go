package telemetry

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// TraceContext identifies one request (or training step) and the span
// within it that is currently executing. It crosses process-notional
// boundaries two ways: as the X-Pac-Trace HTTP header between loadgen,
// router and replica, and as a fixed 19-byte envelope prepended to
// transport frames between pipeline stages. A zero TraceContext is
// "not traced" and every operation on it no-ops.
type TraceContext struct {
	TraceID uint64 // shared by every span in one causal tree; 0 = invalid
	SpanID  uint64 // the currently-executing span (parent of children)
	Sampled bool   // record spans for this trace?
}

// Valid reports whether the context identifies a trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != 0 }

// TraceHeader is the HTTP header carrying a TraceContext:
// "<trace>-<span>-<sampled>" with trace/span as 16 hex digits and
// sampled as 0 or 1, e.g. "X-Pac-Trace: 1f3a…9c-04d2…71-1".
const TraceHeader = "X-Pac-Trace"

// HeaderValue renders the context for the X-Pac-Trace header.
func (tc TraceContext) HeaderValue() string {
	s := 0
	if tc.Sampled {
		s = 1
	}
	return fmt.Sprintf("%016x-%016x-%d", tc.TraceID, tc.SpanID, s)
}

// TraceIDString renders the trace ID the way reports and exemplars
// name it: 16 lowercase hex digits.
func (tc TraceContext) TraceIDString() string { return fmt.Sprintf("%016x", tc.TraceID) }

// ParseTraceContext decodes a HeaderValue. ok is false for anything
// malformed — callers treat a bad header as "not traced", never an
// error, so a stale or foreign header cannot fail a request.
func ParseTraceContext(s string) (TraceContext, bool) {
	var tc TraceContext
	var sampled int
	if len(s) != 35 { // 16 + 1 + 16 + 1 + 1
		return TraceContext{}, false
	}
	n, err := fmt.Sscanf(s, "%16x-%16x-%1d", &tc.TraceID, &tc.SpanID, &sampled)
	if err != nil || n != 3 || tc.TraceID == 0 || sampled > 1 {
		return TraceContext{}, false
	}
	tc.Sampled = sampled == 1
	return tc, true
}

// ID generation: a process-wide atomic counter pushed through
// splitmix64. Sequential counters give collision-free IDs within a
// process; the time-derived seed decorrelates processes. splitmix64 is
// a bijection, so distinct counters can never collide.
var idCounter atomic.Uint64

func init() { idCounter.Store(uint64(time.Now().UnixNano())) }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewID returns a fresh nonzero 64-bit identifier.
func NewID() uint64 {
	for {
		if id := splitmix64(idCounter.Add(1)); id != 0 {
			return id
		}
	}
}

type traceCtxKey struct{}

// ContextWithTrace attaches tc to ctx. A zero tc returns ctx unchanged
// so untraced paths pay nothing downstream.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFrom extracts the TraceContext carried by ctx, if any.
func TraceFrom(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// Transport envelope: trace context piggybacks on pipeline frames as a
// fixed prefix so every stage of a microbatch's journey joins one
// causal tree. Layout: magic 0xFA 0xCE, version 1, traceID (8 bytes
// big-endian), spanID (8), flags (bit 0 = sampled) — 20 bytes total.
// UnwrapEnvelope falls back to "no envelope" on any mismatch, so mixed
// traced/untraced peers interoperate.
const (
	envMagic0  = 0xFA
	envMagic1  = 0xCE
	envVersion = 1
	envLen     = 20
)

// AppendEnvelope appends tc's wire form to dst (dst unchanged for an
// invalid tc). Senders that build their payload with append start from
// AppendEnvelope(nil, tc) to avoid a second full-frame copy.
func AppendEnvelope(dst []byte, tc TraceContext) []byte {
	if !tc.Valid() {
		return dst
	}
	var hdr [envLen]byte
	hdr[0], hdr[1], hdr[2] = envMagic0, envMagic1, envVersion
	binary.BigEndian.PutUint64(hdr[3:], tc.TraceID)
	binary.BigEndian.PutUint64(hdr[11:], tc.SpanID)
	if tc.Sampled {
		hdr[19] = 1
	}
	return append(dst, hdr[:]...)
}

// UnwrapEnvelope splits a frame into its trace context and payload.
// Frames without a valid envelope return a zero context and the frame
// untouched.
func UnwrapEnvelope(frame []byte) (TraceContext, []byte) {
	if len(frame) < envLen || frame[0] != envMagic0 || frame[1] != envMagic1 || frame[2] != envVersion {
		return TraceContext{}, frame
	}
	tc := TraceContext{
		TraceID: binary.BigEndian.Uint64(frame[3:]),
		SpanID:  binary.BigEndian.Uint64(frame[11:]),
		Sampled: frame[19]&1 == 1,
	}
	if !tc.Valid() {
		return TraceContext{}, frame
	}
	return tc, frame[envLen:]
}
