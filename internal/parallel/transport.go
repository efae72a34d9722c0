// Package parallel implements the executable distributed-training
// engines PAC runs on: a message transport (in-process channels,
// optionally wrapped with fault injection), the ring all-reduce,
// data-parallel training (the cached epochs), 1F1B pipeline-parallel
// training (one hybrid lane), and PAC's hybrid of both. Engines train
// Parallel Adapters side networks over real frozen models and are
// validated for gradient equivalence against the single-device trainer;
// the Eco-FL, EDDL and Standalone baselines are simulated (core.Engine). Every fabric lives in
// one process; running one process per device would need a Transport
// that dials peer addresses.
package parallel

import (
	"context"
	"fmt"

	"pac/internal/memledger"
)

// memFrames accounts transport payload bytes held by the fabric
// itself: messages sitting in ChanNetwork pipes between send and
// receive. Bytes a receiver has already taken delivery of belong to
// whatever subsystem consumes them, not to the transport. Messages abandoned in
// a crashed attempt's fabric stay reserved until the fabric is
// garbage-collected — visible residue, by design.
var memFrames = memledger.Default().Account("parallel.frames")

// Transport moves tagged byte payloads between ranks. Per-pair ordering
// is FIFO — the engines' communication patterns are deterministic, so
// tag verification suffices to catch protocol bugs.
//
// Both primitives honor the context's deadline and cancellation and
// report every failure as an error (ErrTransient for retryable faults,
// ErrTagMismatch for protocol violations, deadline errors for
// suspected-dead peers): nothing a peer does can panic the caller.
type Transport interface {
	Rank() int
	Size() int

	// SendCtx delivers payload to rank `to` under ctx. Sends are
	// non-blocking in the common case (buffered channels) but may block
	// under backpressure, in which case ctx applies.
	SendCtx(ctx context.Context, to int, tag string, payload []byte) error
	// RecvCtx blocks until the next message from `from` arrives or ctx
	// expires, then verifies its tag.
	RecvCtx(ctx context.Context, from int, tag string) ([]byte, error)
}

type message struct {
	tag  string
	data []byte
}

// ChanNetwork is an in-process transport fabric: rank×rank buffered
// channels.
type ChanNetwork struct {
	n     int
	pipes [][]chan message // pipes[from][to]
}

// NewChanNetwork builds a fabric for n ranks.
func NewChanNetwork(n int) *ChanNetwork {
	cn := &ChanNetwork{n: n, pipes: make([][]chan message, n)}
	for i := range cn.pipes {
		cn.pipes[i] = make([]chan message, n)
		for j := range cn.pipes[i] {
			cn.pipes[i][j] = make(chan message, 1024)
		}
	}
	return cn
}

// Endpoint returns rank r's transport handle.
func (cn *ChanNetwork) Endpoint(r int) Transport {
	return &chanEndpoint{net: cn, rank: r}
}

// Endpoints returns all handles in rank order.
func (cn *ChanNetwork) Endpoints() []Transport {
	out := make([]Transport, cn.n)
	for i := range out {
		out[i] = cn.Endpoint(i)
	}
	return out
}

type chanEndpoint struct {
	net  *ChanNetwork
	rank int
}

func (e *chanEndpoint) Rank() int { return e.rank }
func (e *chanEndpoint) Size() int { return e.net.n }

func (e *chanEndpoint) SendCtx(ctx context.Context, to int, tag string, payload []byte) error {
	select {
	case e.net.pipes[e.rank][to] <- message{tag: tag, data: payload}:
		memFrames.Reserve(int64(len(payload)))
		return nil
	case <-ctx.Done():
		return fmt.Errorf("parallel: send %d→%d %q: %w", e.rank, to, tag, ctx.Err())
	}
}

func (e *chanEndpoint) RecvCtx(ctx context.Context, from int, tag string) ([]byte, error) {
	select {
	case m := <-e.net.pipes[from][e.rank]:
		// The bytes left the fabric whether or not the tag matches.
		memFrames.Release(int64(len(m.data)))
		if m.tag != tag {
			return nil, fmt.Errorf("parallel: rank %d expected tag %q from %d, got %q: %w",
				e.rank, tag, from, m.tag, ErrTagMismatch)
		}
		return m.data, nil
	case <-ctx.Done():
		return nil, fmt.Errorf("parallel: recv %d←%d %q: %w", e.rank, from, tag, ctx.Err())
	}
}
