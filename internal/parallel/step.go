package parallel

import (
	"context"
	"sync"
	"time"

	"pac/internal/data"
	"pac/internal/health"
	"pac/internal/telemetry"
)

// step is what DPGroup, HybridEngine and PipelineEngine hand to the one
// scaffold their StepCtx runs through: who they are in metrics, health
// samples and flight events, and the three knobs each of them carries.
type step struct {
	engine  *engineMetrics
	trace   *telemetry.Tracer
	timeout time.Duration
	health  health.Sink
}

// run executes one training step on mini-batch b: fn for ranks 0..n-1
// at once (see fanOut). Before them: a tracer gives the step a root
// span on the orchestrator track — nested under an incoming trace
// (core's, a benchmark's) when ctx carries one — and puts it in ctx, so
// every span recorded below has that root; the timeout, when set,
// bounds the step. After them, if none failed: the whole-step metrics,
// the whole-step health sample (Lane/Stage/Rank all -1) and the flight
// event. A failed step reports none of the three.
func (s step) run(ctx context.Context, b *data.Batch, n int, fn func(ctx context.Context, rank int) error) error {
	t0 := time.Now()
	if s.trace != nil {
		var stepTC telemetry.TraceContext
		var end func()
		if parent, ok := telemetry.TraceFrom(ctx); ok {
			stepTC, end = s.trace.SpanTC(parent, "step", "step", telemetry.PidOrch, 0)
		} else {
			stepTC, end = s.trace.RootSpanTC("step", "step", telemetry.PidOrch, 0)
		}
		defer end()
		ctx = telemetry.ContextWithTrace(ctx, stepTC)
	}
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	if err := fanOut(ctx, n, fn); err != nil {
		return err
	}
	elapsed := time.Since(t0).Seconds()
	s.engine.steps.Inc()
	s.engine.seconds.Observe(elapsed)
	tok := batchTokens(b.Lens)
	mTokens.Add(tok)
	if elapsed > 0 {
		mTokensPerSec.Set(float64(tok) / elapsed)
	}
	if s.health != nil {
		s.health.ReportStep(health.StepStats{
			Engine: s.engine.name, Lane: -1, Stage: -1, Rank: -1, StepSec: elapsed,
		})
	}
	health.Flight().Record("step", -1, -1, s.engine.name, elapsed)
	return nil
}

// fanOut runs fn for ranks 0..n-1 at once — DP replicas, hybrid lanes,
// pipeline stages — and waits for all of them. The first failure
// cancels the context the others run under, so a dead peer aborts every
// survivor instead of leaving it blocked on a receive: nothing hangs,
// no goroutine outlives the call.
func fanOut(ctx context.Context, n int, fn func(ctx context.Context, rank int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	col := &errCollector{cancel: cancel}
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			col.record(fn(ctx, r))
		}(r)
	}
	wg.Wait()
	return col.first
}

// errCollector gathers per-rank failures under a lock and cancels the
// shared step context on the first one, preferring RankFailedError as
// the reported cause (cancellation noise from the abort is secondary).
// first is read once every recorder has returned.
type errCollector struct {
	mu     sync.Mutex
	first  error
	cancel context.CancelFunc
}

func (c *errCollector) record(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.first == nil {
		c.first = err
	} else if _, ok := AsRankFailed(c.first); !ok {
		if _, ok := AsRankFailed(err); ok {
			c.first = err
		}
	}
	c.mu.Unlock()
	c.cancel()
}

// trainEpochFrom is the resumable epoch loop of DPGroup and
// HybridEngine: it runs the loader epoch from batch index start,
// skipping the batches a resumed run already completed, calls onStep
// (when non-nil) after each completed step, and returns the mean loss
// over the batches actually executed. start at or past the batch count
// runs nothing (the epoch was already complete).
func trainEpochFrom(ctx context.Context, loader *data.Loader, epoch, start int,
	stepCtx func(context.Context, *data.Batch) (float64, error), onStep func(epoch, step int)) (float64, error) {
	batches := loader.Epoch(epoch)
	if start < 0 {
		start = 0
	}
	var total float64
	ran := 0
	for i := start; i < len(batches); i++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		loss, err := stepCtx(ctx, batches[i])
		if err != nil {
			return 0, err
		}
		total += loss
		ran++
		if onStep != nil {
			onStep(epoch, i)
		}
	}
	if ran == 0 {
		return 0, nil
	}
	return total / float64(ran), nil
}
