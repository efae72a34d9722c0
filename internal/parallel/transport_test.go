package parallel

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newTCP(t *testing.T, n int) *TCPNetwork {
	t.Helper()
	tn, err := NewTCPNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(tn.Close)
	return tn
}

func TestTCPFrameRoundTrip(t *testing.T) {
	tn := newTCP(t, 2)
	a, b := tn.Endpoint(0), tn.Endpoint(1)

	big := make([]byte, 96*1024) // larger than one 64 KiB socket buffer
	for i := range big {
		big[i] = byte(i * 31)
	}
	for _, payload := range [][]byte{{}, {7}, big} {
		payload := payload
		done := make(chan error, 1)
		go func() {
			done <- a.SendCtx(context.Background(), 1, "t", payload)
		}()
		got, err := b.RecvCtx(context.Background(), 0, "t")
		if err != nil {
			t.Fatalf("recv %d bytes: %v", len(payload), err)
		}
		if err := <-done; err != nil {
			t.Fatalf("send %d bytes: %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round-trip of %d bytes corrupted (got %d bytes)", len(payload), len(got))
		}
	}
}

func TestTCPTagMismatch(t *testing.T) {
	tn := newTCP(t, 2)
	a, b := tn.Endpoint(0), tn.Endpoint(1)

	if err := a.SendCtx(context.Background(), 1, "actual", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	_, err := b.RecvCtx(context.Background(), 0, "expected")
	if !errors.Is(err, ErrTagMismatch) {
		t.Fatalf("want ErrTagMismatch, got %v", err)
	}
}

func TestTCPCloseDuringRecv(t *testing.T) {
	tn := newTCP(t, 2)
	b := tn.Endpoint(1)

	errc := make(chan error, 1)
	go func() {
		_, err := b.RecvCtx(context.Background(), 0, "never")
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the read block
	tn.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("recv on closed network returned nil error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv hung after Close")
	}
}

func TestTCPRecvDeadline(t *testing.T) {
	tn := newTCP(t, 2)
	b := tn.Endpoint(1)

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := b.RecvCtx(ctx, 0, "never")
	if !isDeadline(err) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline not honored: blocked %v", elapsed)
	}
}

func TestTCPRecvCancelReportsCanceled(t *testing.T) {
	// A mid-read cancellation must surface as context.Canceled, not as a
	// deadline error (which the engines would misread as a dead peer).
	tn := newTCP(t, 2)
	b := tn.Endpoint(1)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.RecvCtx(ctx, 0, "never")
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("recv did not unblock on cancel")
	}
}

func TestTCPConcurrentSendersNoInterleave(t *testing.T) {
	// Many goroutines send whole frames to the same peer concurrently;
	// every frame must arrive intact (sendMu prevents byte interleaving).
	tn := newTCP(t, 2)
	a, b := tn.Endpoint(0), tn.Endpoint(1)

	const senders, frames = 8, 20
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < frames; k++ {
				payload := make([]byte, 8+s) // distinct lengths per sender
				binary.LittleEndian.PutUint64(payload, uint64(s))
				if err := a.SendCtx(context.Background(), 1, "c", payload); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	counts := map[uint64]int{}
	for i := 0; i < senders*frames; i++ {
		got, err := b.RecvCtx(context.Background(), 0, "c")
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(got) < 8 {
			t.Fatalf("recv %d: truncated frame (%d bytes)", i, len(got))
		}
		s := binary.LittleEndian.Uint64(got)
		if int(s) >= senders || len(got) != 8+int(s) {
			t.Fatalf("recv %d: frame corrupted (sender %d, %d bytes)", i, s, len(got))
		}
		counts[s]++
	}
	wg.Wait()
	for s := uint64(0); s < senders; s++ {
		if counts[s] != frames {
			t.Fatalf("sender %d: %d/%d frames arrived", s, counts[s], frames)
		}
	}
}

func TestChanRecvDeadlineAndCancel(t *testing.T) {
	net := NewChanNetwork(2)
	b := net.Endpoint(1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := b.RecvCtx(ctx, 0, "never"); !isDeadline(err) {
		t.Fatalf("want deadline error, got %v", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := b.RecvCtx(ctx2, 0, "never")
		errc <- err
	}()
	cancel2()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestChanSendBlockedByFullPipeHonorsCtx(t *testing.T) {
	net := NewChanNetwork(2)
	a := net.Endpoint(0)
	// Fill the buffered pipe so the next send blocks.
	for i := 0; i < 1024; i++ {
		if err := a.SendCtx(context.Background(), 1, "fill", nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := a.SendCtx(ctx, 1, "fill", nil); !isDeadline(err) {
		t.Fatalf("want deadline error on full pipe, got %v", err)
	}
}

func TestBlamePeerClassification(t *testing.T) {
	rf := blamePeer("recv x", 3, context.DeadlineExceeded)
	got, ok := AsRankFailed(rf)
	if !ok || got.Rank != 3 || got.Lane != -1 {
		t.Fatalf("deadline not blamed on peer: %v", rf)
	}
	if err := blamePeer("recv x", 3, context.Canceled); err != context.Canceled {
		t.Fatalf("cancellation must pass through, got %v", err)
	}
	wrapped := fmt.Errorf("attempt: %w", ErrRankDead)
	if got, ok := AsRankFailed(blamePeer("send x", 1, wrapped)); !ok || got.Rank != 1 {
		t.Fatalf("ErrRankDead not blamed on peer")
	}
	if blamePeer("op", 0, nil) != nil {
		t.Fatal("nil must stay nil")
	}
}
