package parallel

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// faultTranscript drives a fixed send/recv script over a freshly
// wrapped fabric and records every observable outcome: which sends were
// dropped and the exact payload bytes delivered, in order.
func faultTranscript(t *testing.T, cfg FaultConfig) []byte {
	t.Helper()
	eps := WrapFaulty(NewChanNetwork(2).Endpoints(), cfg)
	var buf bytes.Buffer
	drops := 0
	const attempts = 60
	for i := 0; i < attempts; i++ {
		err := eps[0].SendCtx(context.Background(), 1, "m", []byte{byte(i), byte(i >> 4)})
		if errors.Is(err, ErrTransient) {
			drops++
			fmt.Fprintf(&buf, "drop@%d ", i)
			continue
		}
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < attempts-drops; i++ {
		got, err := eps[1].RecvCtx(context.Background(), 0, "m")
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		buf.Write(got)
		buf.WriteByte('|')
	}
	return buf.Bytes()
}

func TestFaultScheduleReproducible(t *testing.T) {
	cfg := FaultConfig{Seed: 42, Drop: 0.3, SlowRank: map[int]time.Duration{0: time.Microsecond}}
	first := faultTranscript(t, cfg)
	for run := 0; run < 3; run++ {
		if again := faultTranscript(t, cfg); !bytes.Equal(again, first) {
			t.Fatalf("schedule not reproducible:\nrun0: %q\nrun%d: %q", first, run+1, again)
		}
	}
	cfg.Seed = 43
	if other := faultTranscript(t, cfg); bytes.Equal(other, first) {
		t.Fatal("different seed produced the identical schedule")
	}
}

func TestFaultDropsAreRetriedByCollectives(t *testing.T) {
	const n, vec = 4, 32
	eps := WrapFaulty(NewChanNetwork(n).Endpoints(), FaultConfig{Seed: 7, Drop: 0.4})
	inputs := make([][]float32, n)
	want := make([]float32, vec)
	for r := 0; r < n; r++ {
		for i := 0; i < vec; i++ {
			inputs[r] = append(inputs[r], float32(r*vec+i))
			want[i] += float32(r*vec + i)
		}
	}
	errs := make([]error, n)
	runRanks(n, eps, func(tr Transport) {
		errs[tr.Rank()] = RingAllReduceCtx(context.Background(), tr, inputs[tr.Rank()], DefaultRetry)
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 0; r < n; r++ {
		for i := range want {
			if diff := inputs[r][i] - want[i]; diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("rank %d elem %d: %v want %v", r, i, inputs[r][i], want[i])
			}
		}
	}
}

func TestFaultCrashKillsOwnOpsAndPeersTimeOut(t *testing.T) {
	eps := WrapFaulty(NewChanNetwork(2).Endpoints(), FaultConfig{
		Seed: 1, Crash: map[int]int{1: 2},
	})

	// Rank 1 burns through its op budget, then dies: its own operations
	// report rank 1 dead.
	var dead error
	for i := 0; i < 5; i++ {
		if err := eps[1].SendCtx(context.Background(), 0, "x", nil); err != nil {
			dead = err
			break
		}
	}
	rf, ok := AsRankFailed(dead)
	if !ok || rf.Rank != 1 || !errors.Is(rf.Err, ErrRankDead) {
		t.Fatalf("crashed rank's own op: want RankFailedError{Rank:1, ErrRankDead}, got %v", dead)
	}

	// Messages rank 1 sent before dying were already in flight and still
	// arrive — drain them.
	for i := 0; i < 2; i++ {
		if _, err := eps[0].RecvCtx(context.Background(), 1, "x"); err != nil {
			t.Fatalf("pre-death message %d lost: %v", i, err)
		}
	}

	// Rank 0 sending to the corpse succeeds silently (black hole) …
	if err := eps[0].SendCtx(context.Background(), 1, "x", nil); err != nil {
		t.Fatalf("send to dead rank must black-hole, got %v", err)
	}
	// … and a deadline-bounded recv from it is blamed on rank 1.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := recvPeer(ctx, eps[0], 1, "x")
	if rf, ok := AsRankFailed(err); !ok || rf.Rank != 1 {
		t.Fatalf("recv from dead rank: want RankFailedError{Rank:1}, got %v", err)
	}
}

func TestFaultTransparentWrapperPreservesSemantics(t *testing.T) {
	// A zero-probability config must behave exactly like the raw fabric:
	// the payload arrives as sent, with no bytes added, and the inner
	// endpoint verifies the tag.
	eps := WrapFaulty(NewChanNetwork(2).Endpoints(), FaultConfig{Seed: 9})
	sent := []byte{7, 8, 9}
	if err := eps[0].SendCtx(context.Background(), 1, "m", sent); err != nil {
		t.Fatal(err)
	}
	got, err := eps[1].RecvCtx(context.Background(), 0, "m")
	if err != nil || len(got) != len(sent) || &got[0] != &sent[0] {
		t.Fatalf("recv %v (%v): want the sent slice itself, %d bytes", got, err, len(sent))
	}
	if err := eps[0].SendCtx(context.Background(), 1, "right", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := eps[1].RecvCtx(context.Background(), 0, "wrong"); !errors.Is(err, ErrTagMismatch) {
		t.Fatalf("want ErrTagMismatch through the wrapper, got %v", err)
	}
	if eps[0].Rank() != 0 || eps[0].Size() != 2 {
		t.Fatal("wrapper broke endpoint identity")
	}
}
