// Package parallel implements the executable distributed-training
// engines PAC and its baselines run on: a message transport (in-process
// channels for tests, TCP for realistic deployments), ring collectives,
// data-parallel training (EDDL), 1F1B pipeline-parallel training
// (Eco-FL), and PAC's hybrid of both. Engines operate on real models
// from the model/peft packages and are validated for gradient
// equivalence against the single-device trainer.
package parallel

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"time"

	"pac/internal/memledger"
)

// memFrames accounts transport payload bytes held by the fabric
// itself: messages sitting in ChanNetwork pipes between send and
// receive, and the encoded TCP frame buffer during the write syscall.
// Bytes a receiver has already taken delivery of belong to whatever
// subsystem consumes them, not to the transport. Messages abandoned in
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
	// non-blocking in the common case (buffered channels / kernel socket
	// buffers) but may block under backpressure, in which case ctx
	// applies.
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

func encodeF32(v []float32) []byte {
	out := make([]byte, 4*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(f))
	}
	return out
}

func decodeF32(b []byte) []float32 {
	out := make([]float32, len(b)/4)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// TCPNetwork is a transport fabric over real sockets (loopback or LAN):
// a full mesh of TCP connections, one per ordered rank pair, carrying
// length-prefixed tagged frames. It exists to demonstrate the engines
// run over genuine networking, not shared memory.
type TCPNetwork struct {
	n     int
	conns [][]net.Conn // conns[from][to], nil on diagonal
	// sendMu[from][to] serializes writes on conns[from][to] so concurrent
	// senders to the same peer emit whole frames, never interleaved ones.
	sendMu [][]sync.Mutex
	// recvMu[from][to] serializes reads the same way: a frame is consumed
	// atomically even if two goroutines recv from the same peer.
	recvMu [][]sync.Mutex
}

// NewTCPNetwork wires a loopback mesh for n ranks.
func NewTCPNetwork(n int) (*TCPNetwork, error) {
	tn := &TCPNetwork{
		n:      n,
		conns:  make([][]net.Conn, n),
		sendMu: make([][]sync.Mutex, n),
		recvMu: make([][]sync.Mutex, n),
	}
	for i := range tn.conns {
		tn.conns[i] = make([]net.Conn, n)
		tn.sendMu[i] = make([]sync.Mutex, n)
		tn.recvMu[i] = make([]sync.Mutex, n)
	}
	// For each ordered pair (i < j) create one connection used for both
	// directions.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, fmt.Errorf("parallel: listen: %w", err)
			}
			type res struct {
				c   net.Conn
				err error
			}
			ch := make(chan res, 1)
			go func() {
				c, err := l.Accept()
				ch <- res{c, err}
			}()
			dial, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				l.Close()
				return nil, fmt.Errorf("parallel: dial: %w", err)
			}
			acc := <-ch
			l.Close()
			if acc.err != nil {
				return nil, fmt.Errorf("parallel: accept: %w", acc.err)
			}
			tn.conns[i][j] = dial
			tn.conns[j][i] = acc.c
		}
	}
	return tn, nil
}

// Close tears down every connection. Blocked RecvCtx calls on any
// endpoint return an error promptly rather than hanging.
func (tn *TCPNetwork) Close() {
	for i := range tn.conns {
		for j := range tn.conns[i] {
			if tn.conns[i][j] != nil {
				tn.conns[i][j].Close()
			}
		}
	}
}

// Endpoint returns rank r's transport handle.
func (tn *TCPNetwork) Endpoint(r int) Transport {
	return &tcpEndpoint{net: tn, rank: r}
}

// Endpoints returns all handles in rank order.
func (tn *TCPNetwork) Endpoints() []Transport {
	out := make([]Transport, tn.n)
	for i := range out {
		out[i] = tn.Endpoint(i)
	}
	return out
}

type tcpEndpoint struct {
	net  *TCPNetwork
	rank int
}

func (e *tcpEndpoint) Rank() int { return e.rank }
func (e *tcpEndpoint) Size() int { return e.net.n }

// Frame format: u32 tag length, tag bytes, u32 payload length, payload.
func (e *tcpEndpoint) SendCtx(ctx context.Context, to int, tag string, payload []byte) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("parallel: tcp send %d→%d: %w", e.rank, to, err)
	}
	conn := e.net.conns[e.rank][to]
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(tag)))
	buf := append(hdr[:], tag...)
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	buf = append(buf, hdr[:]...)
	buf = append(buf, payload...)
	memFrames.Reserve(int64(len(buf)))
	defer memFrames.Release(int64(len(buf)))

	mu := &e.net.sendMu[e.rank][to]
	mu.Lock()
	defer mu.Unlock()
	disarm, err := armDeadline(ctx, conn.SetWriteDeadline)
	if err != nil {
		return fmt.Errorf("parallel: tcp send %d→%d: %w", e.rank, to, err)
	}
	defer disarm()
	if _, err := conn.Write(buf); err != nil {
		return fmt.Errorf("parallel: tcp send %d→%d: %w", e.rank, to, err)
	}
	return nil
}

func (e *tcpEndpoint) RecvCtx(ctx context.Context, from int, tag string) ([]byte, error) {
	// conns[rank][peer] is this rank's end of the pair's connection; the
	// peer writes into its own end conns[peer][rank].
	conn := e.net.conns[e.rank][from]
	mu := &e.net.recvMu[e.rank][from]
	mu.Lock()
	defer mu.Unlock()
	disarm, err := armDeadline(ctx, conn.SetReadDeadline)
	if err != nil {
		return nil, fmt.Errorf("parallel: tcp recv %d←%d %q: %w", e.rank, from, tag, err)
	}
	defer disarm()

	fail := func(err error) ([]byte, error) {
		// A watchdog-forced timeout is really the context finishing:
		// report the context's own error (Canceled vs DeadlineExceeded).
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, os.ErrDeadlineExceeded) {
			err = ctxErr
		}
		return nil, fmt.Errorf("parallel: tcp recv %d←%d %q: %w", e.rank, from, tag, err)
	}
	readU32 := func() (uint32, error) {
		var b [4]byte
		if _, err := io.ReadFull(conn, b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(b[:]), nil
	}
	tagLen, err := readU32()
	if err != nil {
		return fail(err)
	}
	tagBuf := make([]byte, tagLen)
	if _, err := io.ReadFull(conn, tagBuf); err != nil {
		return fail(err)
	}
	payloadLen, err := readU32()
	if err != nil {
		return fail(err)
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(conn, payload); err != nil {
		return fail(err)
	}
	if string(tagBuf) != tag {
		return nil, fmt.Errorf("parallel: rank %d expected tag %q from %d, got %q: %w",
			e.rank, tag, from, tagBuf, ErrTagMismatch)
	}
	return payload, nil
}

// armDeadline maps the context onto a connection deadline setter: the
// context's deadline (if any) becomes the I/O deadline, and a
// cancellation watchdog forces the in-flight read/write to fail
// promptly if ctx is canceled mid-operation. The returned disarm func
// stops the watchdog and clears the deadline.
func armDeadline(ctx context.Context, set func(time.Time) error) (func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dl, ok := ctx.Deadline()
	if !ok {
		dl = time.Time{}
	}
	if err := set(dl); err != nil {
		return nil, err
	}
	stop := context.AfterFunc(ctx, func() { set(time.Unix(1, 0)) })
	return func() {
		stop()
		set(time.Time{})
	}, nil
}
