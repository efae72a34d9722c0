package parallel

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pac/internal/health"
	"pac/internal/tensor"
)

// RetryPolicy bounds how collectives and engines retry transient
// transport faults: up to Max attempts with exponential backoff from
// Base, capped at Cap. The zero value means DefaultRetry.
type RetryPolicy struct {
	Max  int
	Base time.Duration
	Cap  time.Duration
}

// DefaultRetry is the policy of engines and collectives given no
// explicit one: 6 attempts, 1 ms initial backoff doubling to a 50 ms
// cap.
var DefaultRetry = RetryPolicy{Max: 6, Base: time.Millisecond, Cap: 50 * time.Millisecond}

func (p RetryPolicy) orDefault() RetryPolicy {
	if p.Max <= 0 {
		return DefaultRetry
	}
	return p
}

// sendRetry sends with bounded exponential backoff on ErrTransient.
// Non-transient errors (dead rank, canceled context) abort immediately.
func sendRetry(ctx context.Context, t Transport, to int, tag string, payload []byte, pol RetryPolicy) error {
	pol = pol.orDefault()
	backoff := pol.Base
	var err error
	for attempt := 0; attempt < pol.Max; attempt++ {
		err = t.SendCtx(ctx, to, tag, payload)
		if err == nil {
			mSends.Inc()
			mSendBytes.Add(int64(len(payload)))
			return nil
		}
		if !errors.Is(err, ErrTransient) {
			return err
		}
		mSendRetries.Inc()
		health.Flight().Record("retry", -1, t.Rank(), tag, float64(attempt+1))
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return fmt.Errorf("parallel: send %d→%d %q: %w", t.Rank(), to, tag, ctx.Err())
		}
		backoff *= 2
		if backoff > pol.Cap {
			backoff = pol.Cap
		}
	}
	return fmt.Errorf("parallel: send %d→%d %q: %d attempts exhausted: %w", t.Rank(), to, tag, pol.Max, err)
}

// recvPeer receives from a peer and classifies liveness failures as
// RankFailedError blaming that peer.
func recvPeer(ctx context.Context, t Transport, from int, tag string) ([]byte, error) {
	b, err := t.RecvCtx(ctx, from, tag)
	if err != nil {
		return nil, blamePeer("recv "+tag, from, err)
	}
	mRecvs.Inc()
	mRecvBytes.Add(int64(len(b)))
	return b, nil
}

// RingAllReduceCtx sums data across all ranks in t's group in place,
// using the bandwidth-optimal ring algorithm: n−1 reduce-scatter steps
// followed by n−1 all-gather steps, each moving 1/n of the payload.
// Every rank must call it with an equal-length buffer. Transient send
// faults are retried per pol; liveness failures surface as
// RankFailedError.
func RingAllReduceCtx(ctx context.Context, t Transport, data []float32, pol RetryPolicy) error {
	n := t.Size()
	if n == 1 {
		return nil
	}
	mAllReduces.Inc()
	defer func(t0 time.Time) { mAllReduceSec.Observe(time.Since(t0).Seconds()) }(time.Now())
	rank := t.Rank()
	next := (rank + 1) % n
	prev := (rank - 1 + n) % n

	// Chunk boundaries (chunk c = [bounds[c], bounds[c+1])).
	bounds := make([]int, n+1)
	for c := 0; c <= n; c++ {
		bounds[c] = c * len(data) / n
	}
	chunk := func(c int) []float32 { return data[bounds[c%n]:bounds[c%n+1]] }
	// exchange sends one chunk to next and reads want values from prev.
	exchange := func(tag string, send []float32, want int) ([]float32, error) {
		if err := sendRetry(ctx, t, next, tag, tensor.AppendF32s(nil, send), pol); err != nil {
			return nil, err
		}
		raw, err := recvPeer(ctx, t, prev, tag)
		if err != nil {
			return nil, err
		}
		r := tensor.NewReader(raw)
		incoming := r.F32s(want)
		if err := r.End(); err != nil {
			return nil, fmt.Errorf("parallel: allreduce chunk %q: %w", tag, err)
		}
		return incoming, nil
	}

	// Reduce-scatter: after step s, rank r holds the partial sum of chunk
	// (r - s + n) % n.
	for s := 0; s < n-1; s++ {
		sendC := (rank - s + n) % n
		recvC := (rank - s - 1 + n) % n
		tag := fmt.Sprintf("rs%d", s)
		dst := chunk(recvC)
		incoming, err := exchange(tag, chunk(sendC), len(dst))
		if err != nil {
			return err
		}
		for i := range dst {
			dst[i] += incoming[i]
		}
	}
	// All-gather: circulate the fully reduced chunks.
	for s := 0; s < n-1; s++ {
		sendC := (rank + 1 - s + n) % n
		recvC := (rank - s + n) % n
		tag := fmt.Sprintf("ag%d", s)
		dst := chunk(recvC)
		incoming, err := exchange(tag, chunk(sendC), len(dst))
		if err != nil {
			return err
		}
		copy(dst, incoming)
	}
	return nil
}

// RingAllReduce is RingAllReduceCtx without a deadline and under
// DefaultRetry, for callers that own every rank of an in-process fabric
// (a probe timing the collective): there a transport error can only be
// a bug in the caller, so it panics.
func RingAllReduce(t Transport, data []float32) {
	if err := RingAllReduceCtx(context.Background(), t, data, DefaultRetry); err != nil {
		panic(err.Error())
	}
}
