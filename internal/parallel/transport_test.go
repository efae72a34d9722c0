package parallel

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestChanRecvDeadlineAndCancel(t *testing.T) {
	net := NewChanNetwork(2)
	b := net.Endpoints()[1]

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
	a := net.Endpoints()[0]
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
