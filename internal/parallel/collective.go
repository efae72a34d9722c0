package parallel

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
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
//
// A step allocates nothing: each chunk is encoded into a pooled frame,
// and the frame received from prev is decoded straight into the
// destination chunk (added in reduce-scatter, copied in all-gather),
// then recycled. The receiver may recycle it because a delivered frame
// is received exactly once and its sender never touches it again.
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

	// Chunk c is data[c·len/n, (c+1)·len/n).
	chunk := func(c int) []float32 { return data[c*len(data)/n : (c+1)*len(data)/n] }

	// Reduce-scatter: after step s, rank r holds the partial sum of chunk
	// (r - s + n) % n.
	for s := 0; s < n-1; s++ {
		send, dst := chunk((rank-s+n)%n), chunk((rank-s-1+n)%n)
		if err := ringExchange(ctx, t, next, prev, ringTag("rs", s), send, dst, true, pol); err != nil {
			return err
		}
	}
	// All-gather: circulate the fully reduced chunks.
	for s := 0; s < n-1; s++ {
		send, dst := chunk((rank+1-s+n)%n), chunk((rank-s+n)%n)
		if err := ringExchange(ctx, t, next, prev, ringTag("ag", s), send, dst, false, pol); err != nil {
			return err
		}
	}
	return nil
}

// ringExchange is one ring step: it sends chunk send to next in a
// pooled frame and decodes prev's frame into dst, adding when add is
// set and copying otherwise. A frame that is not 4·len(dst) bytes is an
// error, the one a tensor.Reader reports for it.
func ringExchange(ctx context.Context, t Transport, next, prev int, tag string, send, dst []float32, add bool, pol RetryPolicy) error {
	frame := tensor.AppendF32s(frames.get(4*len(send)), send)
	if err := sendRetry(ctx, t, next, tag, frame, pol); err != nil {
		return err
	}
	raw, err := recvPeer(ctx, t, prev, tag)
	if err != nil {
		return err
	}
	if len(raw) != 4*len(dst) {
		r := tensor.NewReader(raw)
		r.F32s(len(dst))
		return fmt.Errorf("parallel: allreduce chunk %q: %w", tag, r.End())
	}
	if add {
		for i := range dst {
			dst[i] += math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	} else {
		for i := range dst {
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	}
	frames.put(raw)
	return nil
}

// ringTags holds the tags of the first ring steps, so a step formats
// none.
var ringTags = func() map[string][]string {
	m := map[string][]string{}
	for _, kind := range []string{"rs", "ag"} {
		for s := 0; s < 16; s++ {
			m[kind] = append(m[kind], fmt.Sprintf("%s%d", kind, s))
		}
	}
	return m
}()

// ringTag is kind (rs or ag) followed by the step number.
func ringTag(kind string, s int) string {
	if s < len(ringTags[kind]) {
		return ringTags[kind][s]
	}
	return fmt.Sprintf("%s%d", kind, s)
}

// frames recycles the all-reduce's frames.
var frames framePool

// framePool is a bounded free list of byte frames. get hands out an
// empty frame with room for n bytes; put takes back a frame whose bytes
// nobody reads any more. It keeps at most maxFreeFrames, the largest
// ones, so a mix of chunk sizes settles on frames that fit them all.
type framePool struct {
	mu   sync.Mutex
	free [][]byte
}

const maxFreeFrames = 16

func (p *framePool) get(n int) []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, f := range p.free {
		if cap(f) >= n {
			last := len(p.free) - 1
			p.free[i], p.free[last] = p.free[last], nil
			p.free = p.free[:last]
			return f[:0]
		}
	}
	return make([]byte, 0, n)
}

func (p *framePool) put(f []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < maxFreeFrames {
		p.free = append(p.free, f)
		return
	}
	small := 0
	for i, g := range p.free {
		if cap(g) < cap(p.free[small]) {
			small = i
		}
	}
	if cap(f) > cap(p.free[small]) {
		p.free[small] = f
	}
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
