package tensor

import (
	"math"
	"testing"
)

func TestQuantizeWeightRoundTrip(t *testing.T) {
	g := NewRNG(51)
	w := g.Randn(1, 24, 16)
	q := QuantizeWeight(w)
	if q.In != 24 || q.Out != 16 {
		t.Fatalf("quantized dims %dx%d", q.In, q.Out)
	}
	deq := q.Dequantize()
	for j := 0; j < q.Out; j++ {
		half := q.Scale[j] / 2
		for p := 0; p < q.In; p++ {
			d := float64(w.Data[p*q.Out+j] - deq.Data[p*q.Out+j])
			if math.Abs(d) > float64(half)*(1+1e-6) {
				t.Fatalf("channel %d row %d: round-trip error %v exceeds scale/2 = %v",
					j, p, d, half)
			}
		}
	}
}

func TestQuantizeWeightZeroChannel(t *testing.T) {
	w := New(4, 3)
	// Channel 1 stays all-zero; others get values.
	for p := 0; p < 4; p++ {
		w.Data[p*3+0] = float32(p + 1)
		w.Data[p*3+2] = -float32(p + 1)
	}
	q := QuantizeWeight(w)
	if q.Scale[1] != 0 {
		t.Fatalf("zero channel scale %v", q.Scale[1])
	}
	a := FromSlice([]float32{1, 2, 3, 4}, 1, 4)
	out := QuantMatMul(a, q)
	if out.Data[1] != 0 {
		t.Fatalf("zero channel output %v", out.Data[1])
	}
	if out.Data[0] == 0 || out.Data[2] == 0 {
		t.Fatal("live channels produced zero")
	}
}

func TestQuantClampSymmetric(t *testing.T) {
	for _, tc := range []struct {
		in   float32
		want int8
	}{{0, 0}, {0.4, 0}, {0.6, 1}, {-0.6, -1}, {126.6, 127}, {200, 127}, {-126.6, -127}, {-200, -127}} {
		if got := quantClamp(tc.in); got != tc.want {
			t.Fatalf("quantClamp(%v) = %d want %d", tc.in, got, tc.want)
		}
	}
}

// exactMatMul64 is the float64 reference the tolerance bound is taken
// against (fp32 accumulation noise would otherwise leak into the bound).
func exactMatMul64(a, w *Tensor) []float64 {
	rows, k := Rows(a)
	_, n := Rows(w)
	out := make([]float64, rows*n)
	for i := 0; i < rows; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(w.Data[p*n+j])
			}
			out[i*n+j] = s
		}
	}
	return out
}

// quantMatMulOracle is the scalar int8 product QuantMatMul ran on
// before the AVX2 tile: per row, quantize the activations, then dot
// each pair of channels four steps at a time. The tile must match it
// bit for bit, as int32 sums are exact in any order.
func quantMatMulOracle(a *Tensor, q *QuantizedWeight) []float32 {
	rows, k := matShape(a)
	n, qw, colScale := q.Out, q.Q, q.Scale
	out := make([]float32, rows*n)
	qrow := make([]int8, k)
	for i := 0; i < rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		var amax float32
		for _, v := range arow {
			if v < 0 {
				v = -v
			}
			if v > amax {
				amax = v
			}
		}
		orow := out[i*n : (i+1)*n]
		if amax == 0 {
			continue
		}
		rscale := amax / 127
		inv := 1 / rscale
		for p, v := range arow {
			qrow[p] = quantClamp(v * inv)
		}
		j := 0
		for ; j+2 <= n; j += 2 {
			w0 := qw[j*k : (j+1)*k]
			w1 := qw[(j+1)*k : (j+2)*k]
			var acc0, acc1 int32
			p := 0
			for ; p+4 <= k; p += 4 {
				q0, q1, q2, q3 := int32(qrow[p]), int32(qrow[p+1]), int32(qrow[p+2]), int32(qrow[p+3])
				acc0 += q0*int32(w0[p]) + q1*int32(w0[p+1]) + q2*int32(w0[p+2]) + q3*int32(w0[p+3])
				acc1 += q0*int32(w1[p]) + q1*int32(w1[p+1]) + q2*int32(w1[p+2]) + q3*int32(w1[p+3])
			}
			for ; p < k; p++ {
				qv := int32(qrow[p])
				acc0 += qv * int32(w0[p])
				acc1 += qv * int32(w1[p])
			}
			orow[j] = float32(acc0) * rscale * colScale[j]
			orow[j+1] = float32(acc1) * rscale * colScale[j+1]
		}
		for ; j < n; j++ {
			wrow := qw[j*k : (j+1)*k]
			var acc int32
			for p, qv := range qrow {
				acc += int32(qv) * int32(wrow[p])
			}
			orow[j] = float32(acc) * rscale * colScale[j]
		}
	}
	return out
}

// TestQuantMatMulWithinAnalyticBound asserts the documented error
// contract: |out - exact| ≤ k·(wmax·sa/2 + amax·sw/2 + sa·sw/4) per
// element, with per-row activation scale sa and per-column weight
// scale sw. A small multiplicative slack absorbs fp32 epilogue noise.
func TestQuantMatMulWithinAnalyticBound(t *testing.T) {
	g := NewRNG(52)
	for _, dims := range [][3]int{{2, 16, 8}, {5, 64, 32}, {3, 100, 7}} {
		rows, k, n := dims[0], dims[1], dims[2]
		a := g.Randn(1, rows, k)
		w := g.Randn(1, k, n)
		q := QuantizeWeight(w)
		got := QuantMatMul(a, q)
		exact := exactMatMul64(a, w)

		// Per-column weight absmax from the original weights.
		wmax := make([]float64, n)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				v := math.Abs(float64(w.Data[p*n+j]))
				if v > wmax[j] {
					wmax[j] = v
				}
			}
		}
		for i := 0; i < rows; i++ {
			var amax float64
			for p := 0; p < k; p++ {
				v := math.Abs(float64(a.Data[i*k+p]))
				if v > amax {
					amax = v
				}
			}
			sa := amax / 127
			for j := 0; j < n; j++ {
				sw := wmax[j] / 127
				bound := float64(k) * (wmax[j]*sa/2 + amax*sw/2 + sa*sw/4)
				diff := math.Abs(float64(got.Data[i*n+j]) - exact[i*n+j])
				if diff > bound*1.001+1e-6 {
					t.Fatalf("dims %v elem (%d,%d): |err| %v exceeds analytic bound %v",
						dims, i, j, diff, bound)
				}
			}
		}
	}
}

// TestQuantMatMulIntoDirtyDst: zero activation rows must clear (not
// accumulate into) their output rows, and the Into form must fully
// overwrite a dirty destination.
func TestQuantMatMulIntoDirtyDst(t *testing.T) {
	g := NewRNG(53)
	a := g.Randn(1, 4, 12)
	for p := 0; p < 12; p++ {
		a.Data[2*12+p] = 0 // row 2 is all-zero: amax == 0 path
	}
	w := g.Randn(1, 12, 6)
	q := QuantizeWeight(w)
	want := QuantMatMul(a, q)

	dst := New(4, 6)
	nan := float32(math.NaN())
	for i := range dst.Data {
		dst.Data[i] = nan
	}
	QuantMatMulInto(dst, a, q)
	for i := range dst.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("elem %d = %v want %v", i, dst.Data[i], want.Data[i])
		}
	}
	for j := 0; j < 6; j++ {
		if dst.Data[2*6+j] != 0 {
			t.Fatalf("zero activation row produced %v at col %d", dst.Data[2*6+j], j)
		}
	}
}

func TestQuantMatMulShapeMismatchPanics(t *testing.T) {
	q := QuantizeWeight(New(8, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	QuantMatMul(New(2, 7), q)
}

func TestQuantizedWeightBytes(t *testing.T) {
	q := QuantizeWeight(New(24, 16))
	// One int8 per weight plus one fp32 scale per output channel.
	if len(q.Q) != 24*16 || len(q.Scale) != 16 {
		t.Fatalf("storage = %d int8 + %d scales, want %d + %d", len(q.Q), len(q.Scale), 24*16, 16)
	}
}

// TestQuantMatMulIntoAllocs: the serving hot path must not allocate
// after warm-up — the int8 activation scratch is pooled.
func TestQuantMatMulIntoAllocs(t *testing.T) {
	g := NewRNG(54)
	a := g.Randn(1, 8, 64)
	w := g.Randn(1, 64, 32)
	q := QuantizeWeight(w)
	dst := New(8, 32)
	QuantMatMulInto(dst, a, q) // warm the scratch pool
	allocs := testing.AllocsPerRun(50, func() {
		QuantMatMulInto(dst, a, q)
	})
	if raceEnabled {
		t.Logf("%.1f allocs/op under -race, which drops sync.Pool Puts at random; the assertion runs without -race", allocs)
		return
	}
	if allocs > 0 {
		t.Fatalf("QuantMatMulInto allocates %.1f per op after warm-up", allocs)
	}
}
