package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pac/internal/generate"
	"pac/internal/telemetry"
)

// RunOptions tunes trace replay.
type RunOptions struct {
	// Speedup compresses the trace timeline: 2 fires requests at twice
	// the recorded rate. 0 or 1 replays in real time.
	Speedup float64

	// Tracer, when non-nil, enables causal request tracing: every
	// request carries a fresh TraceContext (propagated over X-Pac-Trace
	// by HTTPTarget, or through the context by an in-process target) and sampled
	// requests record a client-side root span at telemetry.PidClient.
	Tracer *telemetry.Tracer
	// TraceSample is the head-sampling probability in [0,1]. The
	// decision is drawn from the trace seed, so the same trace replays
	// sample the same requests.
	TraceSample float64
	// TailSpans is the per-op count of slowest requests whose client
	// spans are force-recorded after the run even when head sampling
	// skipped them — the tail sampler behind the report's p99
	// exemplars. 0 defaults to 8 when Tracer is set; negative disables.
	TailSpans int
}

// opRec accumulates one op's outcome counts and latency histogram.
type opRec struct {
	issued, ok, errs, canceled atomic.Int64
	lat                        *telemetry.Histogram
	tail                       tailTracker
}

// tailEntry remembers one completed request's trace identity and
// measured latency so its client span can be recorded retroactively.
type tailEntry struct {
	tc    telemetry.TraceContext
	begin time.Time
	sec   float64
}

// tailTracker keeps the k slowest completed requests of one op.
// offer is O(k) under a mutex; k is small (default 8) so contention
// and scan cost are negligible next to a request round trip.
type tailTracker struct {
	mu   sync.Mutex
	k    int
	slow []tailEntry
}

func (t *tailTracker) offer(e tailEntry) {
	if t.k <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.slow) < t.k {
		t.slow = append(t.slow, e)
		return
	}
	min := 0
	for i := range t.slow {
		if t.slow[i].sec < t.slow[min].sec {
			min = i
		}
	}
	if e.sec > t.slow[min].sec {
		t.slow[min] = e
	}
}

// take returns the tracked entries slowest-first.
func (t *tailTracker) take() []tailEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]tailEntry(nil), t.slow...)
	sort.Slice(out, func(i, j int) bool { return out[i].sec > out[j].sec })
	return out
}

// latBuckets spans 25µs to ~13s, ×2 per step — wide enough for an
// in-process tiny-model hit and a badly overloaded HTTP server alike.
func latBuckets() []float64 { return telemetry.ExpBuckets(25e-6, 2, 20) }

// Run replays the trace against the target with open-loop timing: each
// request fires at its recorded arrival offset (scaled by Speedup)
// regardless of how slowly earlier requests complete, exactly like
// independent users who do not wait for each other. It returns the
// machine-readable report; canceling ctx stops issuing and drains
// in-flight requests.
func Run(ctx context.Context, tr *Trace, tgt Target, opts RunOptions) (*Report, error) {
	if len(tr.Requests) == 0 {
		return nil, errors.New("loadgen: empty trace")
	}
	speed := opts.Speedup
	if speed <= 0 {
		speed = 1
	}
	tailK := opts.TailSpans
	if tailK == 0 && opts.Tracer != nil {
		tailK = 8
	}
	sample := opts.TraceSample
	if sample < 0 {
		sample = 0
	}
	if sample > 1 {
		sample = 1
	}
	reg := telemetry.NewRegistry()
	recs := map[Op]*opRec{
		OpClassify: {lat: reg.Histogram("loadgen_latency_seconds", latBuckets(), "op", string(OpClassify)), tail: tailTracker{k: tailK}},
		OpGenerate: {lat: reg.Histogram("loadgen_latency_seconds", latBuckets(), "op", string(OpGenerate)), tail: tailTracker{k: tailK}},
	}
	tracer := opts.Tracer
	// Head-sampling decisions come from the trace seed: replaying the
	// same trace samples the same requests.
	rng := rand.New(rand.NewSource(tr.Config.Seed ^ 0x5ca1ab1e))
	if tracer != nil {
		tracer.SetProcessName(telemetry.PidClient, "loadgen client")
	}

	var wg sync.WaitGroup
	start := time.Now()
	issued := int64(0)
issue:
	for i := range tr.Requests {
		req := &tr.Requests[i]
		due := start.Add(time.Duration(float64(req.ArrivalUS) / speed * float64(time.Microsecond)))
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				break issue
			}
		} else if ctx.Err() != nil {
			break issue
		}
		rec, ok := recs[req.Op]
		if !ok {
			return nil, fmt.Errorf("loadgen: unknown op %q in request %d", req.Op, req.ID)
		}
		issued++
		rec.issued.Add(1)
		var tc telemetry.TraceContext
		rctx := ctx
		if tracer != nil {
			tc = telemetry.TraceContext{
				TraceID: telemetry.NewID(), SpanID: telemetry.NewID(),
				Sampled: rng.Float64() < sample,
			}
			rctx = telemetry.ContextWithTrace(ctx, tc)
		}
		wg.Add(1)
		go func(req *Request, tc telemetry.TraceContext, rctx context.Context) {
			defer wg.Done()
			t0 := time.Now()
			var err error
			if req.Op == OpGenerate {
				_, err = tgt.GenerateFor(rctx, req.User, [][]int{req.Tokens}, []int{req.Len},
					generate.Options{MaxLen: req.MaxLen})
			} else {
				_, err = tgt.ClassifyFor(rctx, req.User, [][]int{req.Tokens}, []int{req.Len})
			}
			dur := time.Since(t0)
			sec := dur.Seconds()
			outcome := "ok"
			switch {
			case err == nil:
				rec.ok.Add(1)
				if tc.Sampled {
					rec.lat.ObserveTrace(sec, tc.TraceID)
				} else {
					rec.lat.Observe(sec)
				}
				rec.tail.offer(tailEntry{tc: tc, begin: t0, sec: sec})
			case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
				rec.canceled.Add(1)
				outcome = "canceled"
			default:
				rec.errs.Add(1)
				outcome = "error"
			}
			if tc.Sampled {
				// Client-side root span: the request as the user saw it,
				// including queueing and transport the server never sees.
				tracer.RecordSpanAt(tc, 0, "client", string(req.Op),
					telemetry.PidClient, req.ID%16, t0, dur,
					map[string]interface{}{"user": req.User, "outcome": outcome})
			}
		}(req, tc, rctx)
	}
	issueWall := time.Since(start).Seconds()
	wg.Wait()
	wall := time.Since(start).Seconds()

	rep := &Report{
		GoVersion:        runtime.Version(),
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		Seed:             tr.Config.Seed,
		Users:            tr.DistinctUsers(),
		Requests:         issued,
		Speedup:          speed,
		WallSeconds:      wall,
		IssueWallSeconds: issueWall,
	}
	for _, op := range []Op{OpClassify, OpGenerate} {
		rec := recs[op]
		if rec.issued.Load() == 0 {
			continue
		}
		thr := 0.0
		if wall > 0 {
			thr = float64(rec.ok.Load()) / wall
		}
		// Tail sampling: the slowest requests get their client spans
		// recorded even when head sampling skipped them, and their trace
		// IDs are stamped as latency-bucket exemplars — the report's p99
		// always names a trace that exists in the dump.
		var exemplars []TraceExemplar
		tail := rec.tail.take() // slowest first
		for _, e := range tail {
			if !e.tc.Valid() {
				continue
			}
			if !e.tc.Sampled {
				tracer.RecordSpanAt(e.tc, 0, "client", string(op),
					telemetry.PidClient, 0, e.begin, time.Duration(e.sec*float64(time.Second)),
					map[string]interface{}{"tail": true})
			}
			exemplars = append(exemplars, TraceExemplar{
				Trace: e.tc.TraceIDString(), Seconds: e.sec,
			})
		}
		// Stamp fastest→slowest so a bucket shared by several tail
		// entries keeps the slowest one as its exemplar.
		for i := len(tail) - 1; i >= 0; i-- {
			if e := tail[i]; e.tc.Valid() {
				rec.lat.StampExemplar(e.sec, e.tc.TraceID)
			}
		}
		rep.Ops = append(rep.Ops, OpStats{
			Op:            string(op),
			Issued:        rec.issued.Load(),
			OK:            rec.ok.Load(),
			Errors:        rec.errs.Load(),
			Canceled:      rec.canceled.Load(),
			ThroughputRPS: thr,
			Latency:       rec.lat.Stats(),
			Exemplars:     exemplars,
		})
	}
	return rep, nil
}
