package tensor

import (
	"math"
	"strings"
	"testing"
)

// withBackend runs fn under the named backend and restores the previous
// selection (tests share the process-global backend pointer).
func withBackend(t *testing.T, name string, fn func()) {
	t.Helper()
	prev := ActiveBackend().Name()
	if err := SetBackend(name); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

// fp32Backends are the backends whose fp32 kernels the tests drive.
// int8 is included because everything trainable runs fp32 under it —
// only frozen-weight projections take the quantized path, and those
// never go through MatMul.
var fp32Backends = []string{"generic", "int8"}

// TestBackendsRegistry pins the backend set; tests elsewhere loop over
// the same two names.
func TestBackendsRegistry(t *testing.T) {
	got := backends()
	want := []string{"generic", "int8"}
	if len(got) != len(want) {
		t.Fatalf("backends() = %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("backends() = %v want %v", got, want)
		}
	}
}

func TestSetBackendUnknown(t *testing.T) {
	err := SetBackend("cuda")
	if err == nil {
		t.Fatal("expected error for unknown backend")
	}
	for _, name := range backends() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not name valid backend %q", err, name)
		}
	}
	if ActiveBackend().Name() == "cuda" {
		t.Fatal("failed SetBackend must not change the active backend")
	}
}

func TestBackendQuantizedFlag(t *testing.T) {
	for _, tc := range []struct {
		name string
		want bool
	}{{"generic", false}, {"int8", true}} {
		withBackend(t, tc.name, func() {
			if BackendQuantized() != tc.want {
				t.Fatalf("BackendQuantized() under %s = %v", tc.name, !tc.want)
			}
		})
	}
}

// TestMatMulMatchesNaiveAllBackends pins every backend's fp32 matmul
// family to the naive reference on awkward (non-multiple-of-block) dims.
func TestMatMulMatchesNaiveAllBackends(t *testing.T) {
	for _, name := range fp32Backends {
		withBackend(t, name, func() {
			g := NewRNG(41)
			for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 7}, {16, 16, 16}, {33, 17, 29}, {8, 64, 10}} {
				m, k, n := dims[0], dims[1], dims[2]
				a := g.Randn(1, m, k)
				b := g.Randn(1, k, n)
				tensorsClose(t, MatMul(a, b), naiveMatMul(a, b), 1e-4)

				bt := Transpose2D(b) // [n, k]
				tensorsClose(t, MatMulT(a, bt), naiveMatMul(a, b), 1e-4)

				at := Transpose2D(a) // [k, m]
				tensorsClose(t, TMatMul(at, b), naiveMatMul(a, b), 1e-4)
			}
		})
	}
}

// TestBatchMatMulMatchesPerBatchAllBackends checks the batched kernels
// against their per-batch single-matrix counterparts under every
// backend (same backend on both sides, so the check is bitwise).
func TestBatchMatMulMatchesPerBatchAllBackends(t *testing.T) {
	for _, name := range fp32Backends {
		withBackend(t, name, func() {
			g := NewRNG(42)
			const batch, m, k, n = 3, 5, 7, 6
			a := g.Randn(1, batch, m, k)
			b := g.Randn(1, batch, k, n)
			bt := g.Randn(1, batch, n, k)

			got := BatchMatMul(a, b)
			gotT := BatchMatMulTScaled(a, bt, 0.37)
			at := g.Randn(1, batch, k, m)
			gotTM := BatchTMatMul(at, b)
			for p := 0; p < batch; p++ {
				ab := FromSlice(a.Data[p*m*k:(p+1)*m*k], m, k)
				bb := FromSlice(b.Data[p*k*n:(p+1)*k*n], k, n)
				btb := FromSlice(bt.Data[p*n*k:(p+1)*n*k], n, k)
				atb := FromSlice(at.Data[p*k*m:(p+1)*k*m], k, m)

				want := MatMul(ab, bb)
				wantT := Scale(MatMulT(ab, btb), 0.37)
				wantTM := TMatMul(atb, bb)
				for i := 0; i < m*n; i++ {
					if got.Data[p*m*n+i] != want.Data[i] {
						t.Fatalf("%s: BatchMatMul batch %d elem %d: %v != %v",
							name, p, i, got.Data[p*m*n+i], want.Data[i])
					}
					if gotT.Data[p*m*n+i] != wantT.Data[i] {
						t.Fatalf("%s: BatchMatMulTScaled batch %d elem %d: %v != %v",
							name, p, i, gotT.Data[p*m*n+i], wantT.Data[i])
					}
				}
				for i := 0; i < m*n; i++ {
					if gotTM.Data[p*m*n+i] != wantTM.Data[i] {
						t.Fatalf("%s: BatchTMatMul batch %d elem %d: %v != %v",
							name, p, i, gotTM.Data[p*m*n+i], wantTM.Data[i])
					}
				}
			}
		})
	}
}

// TestMatMulIntoDirtyDst is the regression test for the fused zeroing:
// MatMulInto no longer pre-zeroes dst serially, so each shard must clear
// the rows it owns. Seeding dst with NaN catches any row the kernel
// accumulates into instead of overwriting.
func TestMatMulIntoDirtyDst(t *testing.T) {
	for _, name := range fp32Backends {
		withBackend(t, name, func() {
			g := NewRNG(43)
			a := g.Randn(1, 17, 9)
			b := g.Randn(1, 9, 13)
			want := MatMul(a, b)
			dst := New(17, 13)
			nan := float32(math.NaN())
			for i := range dst.Data {
				dst.Data[i] = nan
			}
			MatMulInto(dst, a, b)
			for i := range dst.Data {
				if dst.Data[i] != want.Data[i] {
					t.Fatalf("%s: dirty-dst MatMulInto elem %d = %v want %v",
						name, i, dst.Data[i], want.Data[i])
				}
			}
		})
	}
}

// TestCrossBackendAgreement: the fp32 products are one kernel under
// every backend, so int8's fp32 outputs are bitwise generic's.
func TestCrossBackendAgreement(t *testing.T) {
	g := NewRNG(44)
	a := g.Randn(1, 19, 33)
	b := g.Randn(1, 33, 23)
	bt := Transpose2D(b)
	at := Transpose2D(a)

	type outs struct{ mm, mmt, tmm *Tensor }
	run := func() outs {
		return outs{MatMul(a, b), MatMulT(a, bt), TMatMul(at, b)}
	}
	var ref outs
	withBackend(t, "generic", func() { ref = run() })
	withBackend(t, "int8", func() {
		got := run()
		sameBits(t, "MatMul", got.mm.Data, ref.mm.Data)
		sameBits(t, "MatMulT", got.mmt.Data, ref.mmt.Data)
		sameBits(t, "TMatMul", got.tmm.Data, ref.tmm.Data)
	})
}

// TestSoftmaxInPlaceMatchesSoftmaxAllBackends: the fused in-place path
// and the allocating path must agree bitwise within a backend — both
// route through the same softmaxRows kernel.
func TestSoftmaxInPlaceMatchesSoftmaxAllBackends(t *testing.T) {
	for _, name := range fp32Backends {
		withBackend(t, name, func() {
			g := NewRNG(45)
			x := g.Randn(1, 11, 37)
			want := Softmax(x)
			inPlace := x.Clone()
			SoftmaxInPlace(inPlace)
			for i := range want.Data {
				if inPlace.Data[i] != want.Data[i] {
					t.Fatalf("%s: SoftmaxInPlace elem %d = %v, Softmax = %v",
						name, i, inPlace.Data[i], want.Data[i])
				}
			}
		})
	}
}

// TestGELUBitIdenticalAcrossBackends: GELU and its grad are shared by
// both backends, so outputs are bitwise equal across the whole registry.
func TestGELUBitIdenticalAcrossBackends(t *testing.T) {
	g := NewRNG(46)
	pre := g.Randn(1, 8, 24)
	grad := g.Randn(1, 8, 24)

	var refAct, refGrad *Tensor
	withBackend(t, "generic", func() {
		refAct = New(8, 24)
		GELUInto(refAct, pre)
		refGrad = New(8, 24)
		GELUGradInto(refGrad, pre, grad)
	})
	withBackend(t, "int8", func() {
		act := New(8, 24)
		GELUInto(act, pre)
		dx := New(8, 24)
		GELUGradInto(dx, pre, grad)
		for i := range refAct.Data {
			if act.Data[i] != refAct.Data[i] || dx.Data[i] != refGrad.Data[i] {
				t.Fatalf("int8: GELU diverged from generic at elem %d", i)
			}
		}
	})
}

// TestSetBackendMidFlightKernels: hammering SetBackend while matmuls run
// must stay correct — the fp32 kernels do not depend on the backend.
func TestSetBackendMidFlightKernels(t *testing.T) {
	g := NewRNG(47)
	a := g.Randn(1, 32, 48)
	b := g.Randn(1, 48, 32)
	want := naiveMatMul(a, b)

	done := make(chan struct{})
	go func() {
		defer close(done)
		names := backends()
		for i := 0; i < 200; i++ {
			if err := SetBackend(names[i%len(names)]); err != nil {
				panic(err)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		tensorsClose(t, MatMul(a, b), want, 1e-4)
	}
	<-done
	if err := SetBackend("generic"); err != nil {
		t.Fatal(err)
	}
}
