package parallel

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"pac/internal/tensor"
)

// runRanks executes fn concurrently for every rank over a fabric.
func runRanks(n int, eps []Transport, fn func(t Transport)) {
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(eps[r])
		}(r)
	}
	wg.Wait()
}

func TestChanTransportBasics(t *testing.T) {
	net := NewChanNetwork(2)
	a, b := net.Endpoints()[0], net.Endpoints()[1]
	if a.Rank() != 0 || a.Size() != 2 {
		t.Fatal("endpoint identity wrong")
	}
	ctx := context.Background()
	go a.SendCtx(ctx, 1, "x", tensor.AppendF32s(nil, []float32{1, 2, 3}))
	raw, err := b.RecvCtx(ctx, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got := tensor.NewReader(raw).F32s(3); len(got) != 3 || got[2] != 3 {
		t.Fatalf("recv %v", got)
	}
}

// TestChanTagMismatch: a protocol violation on the fabric is an error
// the caller can match, never a panic.
func TestChanTagMismatch(t *testing.T) {
	net := NewChanNetwork(2)
	a, b := net.Endpoints()[0], net.Endpoints()[1]
	if err := a.SendCtx(context.Background(), 1, "right", tensor.AppendF32s(nil, []float32{1})); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvCtx(context.Background(), 0, "wrong"); !errors.Is(err, ErrTagMismatch) {
		t.Fatalf("want ErrTagMismatch, got %v", err)
	}
}

func allReduceSumTest(t *testing.T, eps []Transport, n, vec int) {
	t.Helper()
	inputs := make([][]float32, n)
	want := make([]float32, vec)
	for r := 0; r < n; r++ {
		g := tensor.NewRNG(int64(100 + r))
		inputs[r] = g.Uniform(-1, 1, vec).Data
		for i, v := range inputs[r] {
			want[i] += v
		}
	}
	outs := make([][]float32, n)
	runRanks(n, eps, func(tr Transport) {
		buf := append([]float32(nil), inputs[tr.Rank()]...)
		RingAllReduce(tr, buf)
		outs[tr.Rank()] = buf
	})
	for r := 0; r < n; r++ {
		for i := range want {
			if math.Abs(float64(outs[r][i]-want[i])) > 1e-4 {
				t.Fatalf("rank %d elem %d: %v want %v", r, i, outs[r][i], want[i])
			}
		}
	}
}

func TestRingAllReduceSums(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		net := NewChanNetwork(n)
		allReduceSumTest(t, net.Endpoints(), n, 37)
	}
}

func TestRingAllReduceSmallVector(t *testing.T) {
	// Vector shorter than the rank count exercises empty chunks.
	net := NewChanNetwork(5)
	allReduceSumTest(t, net.Endpoints(), 5, 3)
}

func TestPropAllReduceMatchesSerialSum(t *testing.T) {
	f := func(nRaw, vecRaw uint8, seed int64) bool {
		n := int(nRaw%5) + 1
		vec := int(vecRaw%30) + 1
		net := NewChanNetwork(n)
		inputs := make([][]float32, n)
		want := make([]float32, vec)
		for r := 0; r < n; r++ {
			inputs[r] = tensor.NewRNG(seed+int64(r)).Uniform(-2, 2, vec).Data
			for i, v := range inputs[r] {
				want[i] += v
			}
		}
		ok := true
		runRanks(n, net.Endpoints(), func(tr Transport) {
			buf := append([]float32(nil), inputs[tr.Rank()]...)
			RingAllReduce(tr, buf)
			for i := range want {
				if math.Abs(float64(buf[i]-want[i])) > 1e-3 {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestBundleCodecRoundTrip(t *testing.T) {
	g := tensor.NewRNG(1)
	cases := []bundle{
		{},
		{Enc: g.Randn(1, 2, 3, 4)},
		{Enc: g.Randn(1, 2, 3, 4), Dec: g.Randn(1, 2, 1, 4)},
		{Enc: g.Randn(1, 1, 2, 2), Dec: g.Randn(1, 1, 1, 2), Side: g.Randn(1, 1, 2, 1)},
		{Side: g.Randn(1, 3, 5, 2)},
	}
	for i, c := range cases {
		got, err := decodeBundle(appendBundle(nil, c))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		check := func(a, b *tensor.Tensor, name string) {
			if (a == nil) != (b == nil) {
				t.Fatalf("case %d %s: nil mismatch", i, name)
			}
			if a == nil {
				return
			}
			if !tensor.SameShape(a, b) {
				t.Fatalf("case %d %s: shape", i, name)
			}
			for j := range a.Data {
				if a.Data[j] != b.Data[j] {
					t.Fatalf("case %d %s: data", i, name)
				}
			}
		}
		check(c.Enc, got.Enc, "enc")
		check(c.Dec, got.Dec, "dec")
		check(c.Side, got.Side, "side")
	}

	// Every truncation of a three-tensor frame is an error, never a
	// panic or a short bundle.
	frame := appendBundle(nil, cases[3])
	for n := 0; n < len(frame); n++ {
		if _, err := decodeBundle(frame[:n]); err == nil {
			t.Fatalf("frame cut to %d of %d bytes decoded", n, len(frame))
		}
	}
	if _, err := decodeBundle(append(frame, 0)); err == nil {
		t.Fatal("frame with a trailing byte decoded")
	}
}

// TestRingAllReduceRejectsMisSizedFrame: a peer's frame that is not
// four bytes per value of the chunk it stands for is an error naming
// the chunk, short or long, and never a panic or a partial decode.
func TestRingAllReduceRejectsMisSizedFrame(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bytes int
		want  string
	}{
		{"short", 4*3 - 1, "truncated"},
		{"long", 4*3 + 4, "trailing bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps := NewChanNetwork(2).Endpoints()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			// Rank 0 owns chunk 0 (3 values) and receives chunk 1 (3
			// values) from rank 1 first, as "rs0".
			if err := eps[1].SendCtx(ctx, 0, "rs0", make([]byte, tc.bytes)); err != nil {
				t.Fatal(err)
			}
			data := []float32{1, 2, 3, 4, 5, 6}
			err := RingAllReduceCtx(ctx, eps[0], data, DefaultRetry)
			if err == nil || !strings.Contains(err.Error(), `allreduce chunk "rs0"`) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want the rs0 chunk's %q error", err, tc.want)
			}
			if data[3] != 4 || data[4] != 5 || data[5] != 6 {
				t.Fatalf("a rejected frame was decoded into the chunk: %v", data)
			}
		})
	}
}

// TestRingAllReduceRecyclesFramesSafely: frames go back to a pool the
// moment their receiver has decoded them. Two fabrics of 2 and 3 ranks
// reduce at once through that one pool, many rounds in a row, with
// values that change every round; a frame reused while a peer still
// read it would corrupt a sum (and is a data race under -race).
func TestRingAllReduceRecyclesFramesSafely(t *testing.T) {
	const rounds, vec = 40, 301
	var wg sync.WaitGroup
	for _, n := range []int{2, 3} {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			eps := NewChanNetwork(n).Endpoints()
			for round := 0; round < rounds; round++ {
				outs := make([][]float32, n)
				runRanks(n, eps, func(tr Transport) {
					buf := make([]float32, vec)
					for i := range buf {
						buf[i] = float32(round*vec + i + 1000*tr.Rank())
					}
					RingAllReduce(tr, buf)
					outs[tr.Rank()] = buf
				})
				for r, out := range outs {
					for i, v := range out {
						want := float32(n*(round*vec+i) + 1000*n*(n-1)/2)
						if v != want {
							t.Errorf("%d ranks, round %d, rank %d, elem %d: %v want %v", n, round, r, i, v, want)
							return
						}
					}
				}
			}
		}(n)
	}
	wg.Wait()
}
