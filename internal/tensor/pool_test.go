package tensor

import (
	"sync"
	"testing"
)

func TestPoolRoundTrip(t *testing.T) {
	before := ReadPoolStats()
	b := Get(100)
	if len(b) != 100 {
		t.Fatalf("Get(100) returned len %d", len(b))
	}
	for i := range b {
		if b[i] != 0 {
			t.Fatalf("Get returned non-zero buffer at %d", i)
		}
	}
	b[0] = 42
	if !Put(b) {
		t.Fatal("Put rejected a pool-issued buffer")
	}
	c := Get(100)
	if c[0] != 0 {
		t.Fatal("recycled buffer not zeroed")
	}
	Put(c)
	after := ReadPoolStats()
	if after.Hits <= before.Hits {
		t.Fatal("expected a pool hit on the second Get")
	}
}

func TestPoolDoublePutPanics(t *testing.T) {
	b := Get(64)
	if !Put(b) {
		t.Fatal("first Put rejected")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double Put did not panic")
		}
		// Drain the poisoned buffer so later tests see a clean pool.
		Put(Get(64))
	}()
	Put(b)
}

func TestPoolRejectsForeignSlice(t *testing.T) {
	foreign := make([]float32, 128)
	if Put(foreign) {
		t.Fatal("pool adopted a slice it never issued")
	}
	// A foreign slice whose capacity happens to match a class shape must
	// still be rejected (no canary).
	shaped := make([]float32, 129)[:128]
	if Put(shaped) {
		t.Fatal("pool adopted a canary-less slice with class-shaped capacity")
	}
	s := ReadPoolStats()
	if s.Rejected < 2 {
		t.Fatalf("rejected count %d, want >= 2", s.Rejected)
	}
}

func TestPoolWriteAfterReleasePanics(t *testing.T) {
	b := Get(64)
	Put(b)
	b[2] = 7 // stale-alias write into a free-listed buffer
	defer func() {
		if recover() == nil {
			t.Fatal("Get did not detect the write-after-release")
		}
	}()
	// The poisoned region is verified on the next checkout of this class.
	for i := 0; i < 64; i++ {
		Get(64)
	}
}

func TestPutTensorRecyclesShell(t *testing.T) {
	a := GetTensor(4, 8)
	if a.Numel() != 32 {
		t.Fatalf("GetTensor numel %d", a.Numel())
	}
	if !PutTensor(a) {
		t.Fatal("PutTensor rejected a pooled tensor")
	}
	if a.Data != nil {
		t.Fatal("PutTensor left Data set")
	}
	// Putting a foreign tensor must leave it untouched.
	f := FromSlice(make([]float32, 8), 8)
	if PutTensor(f) {
		t.Fatal("PutTensor adopted a foreign tensor")
	}
	if f.Data == nil || f.Numel() != 8 {
		t.Fatal("PutTensor mutated a rejected foreign tensor")
	}
}

// TestSetMaxWorkersDuringMatMul exercises the documented guarantee that
// SetMaxWorkers is safe while kernels are running (run under -race to
// verify: the old implementation read a plain int racily).
func TestSetMaxWorkersDuringMatMul(t *testing.T) {
	prev := SetMaxWorkers(4)
	defer SetMaxWorkers(prev)
	a := New(64, 64)
	b := New(64, 64)
	for i := range a.Data {
		a.Data[i] = float32(i % 7)
		b.Data[i] = float32(i % 5)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 1
		for {
			select {
			case <-stop:
				return
			default:
				SetMaxWorkers(1 + n%8)
				n++
			}
		}
	}()
	ref := MatMul(a, b)
	for i := 0; i < 50; i++ {
		out := MatMul(a, b)
		for j := range out.Data {
			if out.Data[j] != ref.Data[j] {
				t.Fatalf("worker-count churn changed result at %d", j)
			}
		}
	}
	close(stop)
	wg.Wait()
}
