package parallel

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

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
	a, b := net.Endpoint(0), net.Endpoint(1)
	if a.Rank() != 0 || a.Size() != 2 {
		t.Fatal("endpoint identity wrong")
	}
	ctx := context.Background()
	go a.SendCtx(ctx, 1, "x", encodeF32([]float32{1, 2, 3}))
	raw, err := b.RecvCtx(ctx, 0, "x")
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeF32(raw); len(got) != 3 || got[2] != 3 {
		t.Fatalf("recv %v", got)
	}
}

// TestChanTagMismatch: a protocol violation on the in-process fabric is
// an error the caller can match, like TestTCPTagMismatch over sockets.
func TestChanTagMismatch(t *testing.T) {
	net := NewChanNetwork(2)
	a, b := net.Endpoint(0), net.Endpoint(1)
	if err := a.SendCtx(context.Background(), 1, "right", encodeF32([]float32{1})); err != nil {
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

func TestBroadcast(t *testing.T) {
	net := NewChanNetwork(3)
	outs := make([][]float32, 3)
	runRanks(3, net.Endpoints(), func(tr Transport) {
		buf := make([]float32, 4)
		if tr.Rank() == 1 {
			buf = []float32{7, 8, 9, 10}
		}
		if err := BroadcastCtx(context.Background(), tr, 1, buf, DefaultRetry); err != nil {
			t.Errorf("rank %d: %v", tr.Rank(), err)
		}
		outs[tr.Rank()] = buf
	})
	for r := range outs {
		if outs[r][0] != 7 || outs[r][3] != 10 {
			t.Fatalf("rank %d got %v", r, outs[r])
		}
	}
}

func TestAllGatherBytes(t *testing.T) {
	n := 4
	net := NewChanNetwork(n)
	results := make([][][]byte, n)
	runRanks(n, net.Endpoints(), func(tr Transport) {
		own := []byte{byte(tr.Rank()), byte(tr.Rank() * 10)}
		got, err := AllGatherBytesCtx(context.Background(), tr, own, DefaultRetry)
		if err != nil {
			t.Errorf("rank %d: %v", tr.Rank(), err)
		}
		results[tr.Rank()] = got
	})
	for r := 0; r < n; r++ {
		for src := 0; src < n; src++ {
			got := results[r][src]
			if len(got) != 2 || got[0] != byte(src) || got[1] != byte(src*10) {
				t.Fatalf("rank %d slot %d: %v", r, src, got)
			}
		}
	}
}

func TestTCPTransportCollectives(t *testing.T) {
	n := 3
	net, err := NewTCPNetwork(n)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	allReduceSumTest(t, net.Endpoints(), n, 50)
}

func TestTCPBytesRoundTrip(t *testing.T) {
	net, err := NewTCPNetwork(2)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	a, b := net.Endpoint(0), net.Endpoint(1)
	payload := make([]byte, 100000) // bigger than one TCP segment buffer write
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	go a.SendCtx(context.Background(), 1, "blob", payload)
	got, err := b.RecvCtx(context.Background(), 0, "blob")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("len %d", len(got))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d corrupted", i)
		}
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
		got := decodeBundle(appendBundle(nil, c))
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
}
