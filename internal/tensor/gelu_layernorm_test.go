package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// The GELU and LayerNorm kernels against their oracles, bit for bit, on
// the AVX2 kernels and on the scalar bodies (eachPath). GELU's oracle is
// its scalar body, geluScalar and geluGradScalar. LayerNorm's oracles
// are the row loops LayerNorm ran before the kernels: its scalar body is
// the same arithmetic, split into per-row helpers.

// specialF32 are the inputs on which a kernel and its oracle could part:
// signed zeros, infinities, NaN, subnormals and the largest finite floats.
var specialF32 = []float32{
	0, float32(math.Copysign(0, -1)),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, -3e-39,
	math.MaxFloat32, -math.MaxFloat32,
}

// geluU is the float64 argument geluScalar hands to math.Tanh.
func geluU(x float64) float64 {
	const c = 0.7978845608028654
	return c * (x + 0.044715*x*x*x)
}

// float32Around returns the float32 x at which geluU crosses u (u > 0,
// by bisection: geluU increases), and the 2·ulps+1 floats centred on it.
func float32Around(u float64, ulps int) []float32 {
	lo, hi := 0.0, 64.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if geluU(mid) < u {
			lo = mid
		} else {
			hi = mid
		}
	}
	x := float32(hi)
	for i := 0; i < ulps; i++ {
		x = math.Nextafter32(x, 0)
	}
	out := make([]float32, 0, 2*ulps+1)
	for i := 0; i <= 2*ulps; i++ {
		out = append(out, x)
		x = math.Nextafter32(x, float32(math.Inf(1)))
	}
	return out
}

// geluInputs: the specials; ±2,000 ulps on both sides of the two tanh
// branch points, |u| = 0.625 and |u| = 0.5·MAXLOG = 44.0148…, for both
// signs of x; and every 1,024th float32 bit pattern (4.2 M inputs, with
// the low bits varied so that the mantissas differ). A -race build,
// which runs the scalar oracle ~20× slower, takes every 16,384th.
func geluInputs() []float32 {
	xs := append([]float32(nil), specialF32...)
	for _, u := range []float64{0.625, 44.014845965556525} {
		for _, x := range float32Around(u, 2000) {
			xs = append(xs, x, -x)
		}
	}
	stride := uint32(1024)
	if raceEnabled {
		stride = 1 << 14
	}
	for i := uint32(0); i < math.MaxUint32/stride; i++ {
		xs = append(xs, math.Float32frombits(i*stride+i*7%stride))
	}
	return xs
}

// geluOracle returns gelu(x) and g·gelu'(x) elementwise from the scalar
// body.
func geluOracle(x, g []float32) (y, dy []float32) {
	y, dy = make([]float32, len(x)), make([]float32, len(x))
	for i, v := range x {
		y[i] = geluScalar(v)
		dy[i] = g[i] * geluGradScalar(v)
	}
	return y, dy
}

// geluGrads is an upstream gradient for xs: mostly ±1.5, with NaN,
// ±Inf and ±0 in a few places, so both NaN operands of the final
// product are exercised.
func geluGrads(n int) []float32 {
	g := make([]float32, n)
	for i := range g {
		switch i % 17 {
		case 3:
			g[i] = float32(math.NaN())
		case 5:
			g[i] = float32(math.Inf(-1))
		case 7:
			g[i] = float32(math.Copysign(0, -1))
		default:
			g[i] = 1.5 - float32(i%3)
		}
	}
	return g
}

// sameOracleBits is sameBits against an oracle, except in a -race
// build. Where two NaNs meet, an operation returns its first operand's,
// and the race build compiles the scalar bodies and the oracles with
// other operand orders for some commutative operations than the
// release build, whose payloads the kernels reproduce. Under -race any
// NaN matches a NaN.
func sameOracleBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if raceEnabled {
		nan := float32(math.NaN())
		canon := func(xs []float32) []float32 {
			out := append([]float32(nil), xs...)
			for i, v := range out {
				if v != v {
					out[i] = nan
				}
			}
			return out
		}
		got, want = canon(got), canon(want)
	}
	sameBits(t, what, got, want)
}

// TestGELUMatchesScalarBody: GELUInto and GELUGradInto give the scalar
// body's bits on every input of geluInputs, in place, on every length
// 0–17 at every start misaligned by 0–3 floats, and when a shard ends
// at a length that is not a multiple of the four-lane kernel's.
func TestGELUMatchesScalarBody(t *testing.T) {
	xs := geluInputs()
	gs := geluGrads(len(xs))
	want, wantGrad := geluOracle(xs, gs)
	eachPath(t, func(path string) {
		x, g := FromSlice(xs, len(xs)), FromSlice(gs, len(gs))
		dst := Full(float32(math.NaN()), len(xs))
		GELUInto(dst, x)
		sameOracleBits(t, path+" GELUInto", dst.Data, want)
		GELUGradInto(dst, x, g)
		sameOracleBits(t, path+" GELUGradInto", dst.Data, wantGrad)
		inPlace := x.Clone()
		GELUInto(inPlace, inPlace)
		sameOracleBits(t, path+" GELUInto in place", inPlace.Data, want)

		for n := 0; n <= 17; n++ {
			for off := 0; off < 4; off++ {
				// Start past the specials, where the branch points begin.
				at := len(specialF32) + 4000*off + n
				xv, gv := FromSlice(xs[at:at+n], n), FromSlice(gs[at:at+n], n)
				out := FromSlice(make([]float32, n+off)[off:], n)
				what := fmt.Sprintf("%s n=%d off=%d", path, n, off)
				GELUInto(out, xv)
				sameOracleBits(t, "GELUInto "+what, out.Data, want[at:at+n])
				GELUGradInto(out, xv, gv)
				sameOracleBits(t, "GELUGradInto "+what, out.Data, wantGrad[at:at+n])
			}
		}

		const n = 4003
		for _, split := range []int{1, 2, 3, 5, 6, 7, 9, 13, 2001} {
			kr := &kern{dst: make([]float32, n), a: xs[:n], b: gs[:n]}
			shardGELU(kr, 0, split)
			shardGELU(kr, split, n)
			sameOracleBits(t, fmt.Sprintf("%s shardGELU split %d", path, split), kr.dst, want[:n])
			shardGELUGrad(kr, 0, split)
			shardGELUGrad(kr, split, n)
			sameOracleBits(t, fmt.Sprintf("%s shardGELUGrad split %d", path, split), kr.dst, wantGrad[:n])
		}
	})
}

// gelu64 and geluGrad64 are geluScalar and geluGradScalar before their
// final rounding to float32: the same float64 expressions.
func gelu64(x float64) float64 {
	const c = 0.7978845608028654
	return 0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x)))
}

func geluGrad64(x float64) float64 {
	const c = 0.7978845608028654
	u := c * (x + 0.044715*x*x*x)
	t := math.Tanh(u)
	du := c * (1 + 3*0.044715*x*x)
	return 0.5*(1+t) + 0.5*x*(1-t*t)*du
}

// float64Around returns the 2·ulps+1 float64s centred on the largest
// x ≥ 0 with f(x) < y (f increasing on [0, 64], f(0) < y ≤ f(64)).
func float64Around(f func(float64) float64, y float64, ulps int) []float64 {
	lo, hi := 0.0, 64.0
	for math.Nextafter(lo, hi) < hi {
		if mid := lo + (hi-lo)/2; f(mid) < y {
			lo = mid
		} else {
			hi = mid
		}
	}
	x := lo
	for i := 0; i < ulps; i++ {
		x = math.Nextafter(x, 0)
	}
	out := make([]float64, 0, 2*ulps+1)
	for i := 0; i <= 2*ulps; i++ {
		out = append(out, x)
		x = math.Nextafter(x, math.Inf(1))
	}
	return out
}

// sameBits64 is sameBits for float64 results.
func sameBits64(t *testing.T, what string, in, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s(%v = %#016x) = %v (%#016x), oracle %v (%#016x)", what, in[i], math.Float64bits(in[i]),
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestGELUKernelCoresMatchFloat64: the float64 values the vector GELU
// kernels round to float32 are math.Tanh's and the scalar bodies' bit
// for bit — the check a float32 result cannot make, since a one-ulp
// float64 slip (an unfused exp, a reassociated cube) almost never moves
// the rounded float. Inputs: the specials; ±2,000 float64 ulps around
// both tanh branch points, |u| = 0.625 and |u| = 44.0148…, reached
// directly for tanh and through x for GELU and GELU′; and every GELU
// input of geluInputs.
func TestGELUKernelCoresMatchFloat64(t *testing.T) {
	if !hasAVX2 || !hasFMA {
		t.Skip("no AVX2 + FMA: the scalar bodies are the only GELU path")
	}
	ident := func(u float64) float64 { return u }
	var us, xs []float64
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -5e-324, 1e-300, math.MaxFloat64, -math.MaxFloat64, 0.5} {
		us = append(us, v)
		xs = append(xs, v)
	}
	for _, u := range []float64{0.625, 44.014845965556525} {
		for _, v := range float64Around(ident, u, 2000) {
			us = append(us, v, -v)
		}
		for _, v := range float64Around(geluU, u, 2000) {
			xs = append(xs, v, -v)
		}
	}
	for _, v := range geluInputs() {
		xs = append(xs, float64(v))
		us = append(us, geluU(float64(v)))
	}
	for len(us)%4 != 0 {
		us = append(us, 1)
	}
	for len(xs)%4 != 0 {
		xs = append(xs, 1)
	}

	want, got := make([]float64, len(us)), make([]float64, len(us))
	for i, u := range us {
		want[i] = math.Tanh(u)
	}
	tanhF64(&got[0], &us[0], len(us))
	sameBits64(t, "tanhF64", us, got, want)

	want, got = make([]float64, len(xs)), make([]float64, len(xs))
	for i, x := range xs {
		want[i] = gelu64(x)
	}
	geluF64(&got[0], &xs[0], len(xs))
	sameBits64(t, "geluF64", xs, got, want)
	for i, x := range xs {
		want[i] = geluGrad64(x)
	}
	geluGradF64(&got[0], &xs[0], len(xs))
	sameBits64(t, "geluGradF64", xs, got, want)
}

// layerNormForwardOracle is the row loop LayerNormForward ran before its
// kernels.
func layerNormForwardOracle(a, gamma, beta []float32, cols int, eps float32) (out, means, invStds []float32) {
	rows := len(a) / cols
	out, means, invStds = make([]float32, len(a)), make([]float32, rows), make([]float32, rows)
	for r := 0; r < rows; r++ {
		base := r * cols
		var mean float64
		for c := 0; c < cols; c++ {
			mean += float64(a[base+c])
		}
		mean /= float64(cols)
		var variance float64
		for c := 0; c < cols; c++ {
			d := float64(a[base+c]) - mean
			variance += d * d
		}
		variance /= float64(cols)
		invStd := 1 / math.Sqrt(variance+float64(eps))
		means[r] = float32(mean)
		invStds[r] = float32(invStd)
		for c := 0; c < cols; c++ {
			norm := (a[base+c] - float32(mean)) * float32(invStd)
			out[base+c] = norm*gamma[c] + beta[c]
		}
	}
	return out, means, invStds
}

// layerNormBackwardOracle is the serial dγ/dβ loop and the dx row loop
// LayerNormBackwardInto ran before its kernels.
func layerNormBackwardOracle(a, gamma, dOut, means, invStds []float32, cols int) (dx, dGamma, dBeta []float32) {
	rows := len(a) / cols
	dx, dGamma, dBeta = make([]float32, len(a)), make([]float32, cols), make([]float32, cols)
	for r := 0; r < rows; r++ {
		base := r * cols
		mean, invStd := means[r], invStds[r]
		for c := 0; c < cols; c++ {
			xn := (a[base+c] - mean) * invStd
			dBeta[c] += dOut[base+c]
			dGamma[c] += dOut[base+c] * xn
		}
	}
	for r := 0; r < rows; r++ {
		base := r * cols
		mean, invStd := means[r], invStds[r]
		var sumDy, sumDyXn float64
		for c := 0; c < cols; c++ {
			dy := float64(dOut[base+c] * gamma[c])
			xn := float64((a[base+c] - mean) * invStd)
			sumDy += dy
			sumDyXn += dy * xn
		}
		n := float64(cols)
		for c := 0; c < cols; c++ {
			dy := float64(dOut[base+c] * gamma[c])
			xn := float64((a[base+c] - mean) * invStd)
			dx[base+c] = float32(float64(invStd) * (dy - sumDy/n - xn*sumDyXn/n))
		}
	}
	return dx, dGamma, dBeta
}

// layerNormCase draws a [rows, cols] input, gamma, beta and upstream
// gradient. Row r%9 of the input carries one kind of hard row: signed
// zeros, subnormals, ±MaxFloat32, a constant row (variance 0), +Inf,
// +Inf then -Inf then NaN (a generated NaN meeting an input NaN), every
// special at once, or a last-column NaN under an infinite gradient on
// gamma's zero column (an input NaN meeting a generated one in dx's
// sums); the others are Gaussian. gamma and dOut carry zeros, NaNs and
// infinities of both signs, so a column's dγ/dβ sums also meet both.
func layerNormCase(g *RNG, rows, cols int) (a, gamma, beta, dOut *Tensor) {
	a, dOut = g.Randn(1, rows, cols), g.Randn(1, rows, cols)
	gamma, beta = g.Randn(1, cols), g.Randn(1, cols)
	for r := 0; r < rows; r++ {
		row := a.Data[r*cols : (r+1)*cols]
		for c := range row {
			switch r % 9 {
			case 1:
				if c%2 == 0 {
					row[c] = float32(math.Copysign(0, float64(row[c])))
				}
			case 2:
				row[c] *= 1e-39
			case 3:
				if c%3 == 0 {
					row[c] = float32(math.Copysign(math.MaxFloat32, float64(row[c])))
				}
			case 4:
				row[c] = 0.25
			case 5:
				if c == cols/2 {
					row[c] = float32(math.Inf(1))
				}
			case 6:
				row[c] = [...]float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}[c%3]
			case 7:
				row[c] = specialF32[(r+c)%len(specialF32)]
			}
		}
	}
	gamma.Data[0] = 0
	if cols > 2 {
		gamma.Data[1] = float32(math.Copysign(0, -1))
		gamma.Data[cols-1] = float32(math.NaN())
	}
	for i := range dOut.Data {
		switch i % 23 {
		case 4:
			dOut.Data[i] = float32(math.NaN())
		case 9:
			dOut.Data[i] = float32(math.Inf(1))
		case 11:
			dOut.Data[i] = float32(math.Copysign(0, -1))
		case 15:
			dOut.Data[i] = float32(math.Inf(-1))
		}
	}
	for r := 8; r < rows; r += 9 {
		a.Data[(r+1)*cols-1] = float32(math.NaN())
		dOut.Data[r*cols] = float32(math.Inf(1))
	}
	return a, gamma, beta, dOut
}

// layerNormShapes cross row counts 0–9 (every remainder of the
// four-row kernels, and one row of each kind) with every width 1–17 and
// a few wider rows past the eight- and sixteen-column strips.
var layerNormShapes = func() [][2]int {
	var shapes [][2]int
	for rows := 0; rows <= 9; rows++ {
		for cols := 1; cols <= 17; cols++ {
			shapes = append(shapes, [2]int{rows, cols})
		}
		for _, cols := range []int{24, 33, 64, 100, 259} {
			shapes = append(shapes, [2]int{rows, cols})
		}
	}
	return append(shapes, [2]int{23, 256}, [2]int{64, 40})
}()

// TestLayerNormMatchesOracle: LayerNormForwardStats and
// LayerNormBackwardInto, with dx and without, give the oracle loops'
// bits on every shape of layerNormShapes, inputs starting one float
// past an aligned buffer.
func TestLayerNormMatchesOracle(t *testing.T) {
	const eps = 1e-5
	eachPath(t, func(path string) {
		g := NewRNG(61)
		for _, s := range layerNormShapes {
			rows, cols := s[0], s[1]
			what := fmt.Sprintf("%s [%d,%d]", path, rows, cols)
			a, gamma, beta, dOut := layerNormCase(g, rows, cols)
			a = FromSlice(append(make([]float32, 1), a.Data...)[1:], rows, cols)
			want, wantMean, wantInv := layerNormForwardOracle(a.Data, gamma.Data, beta.Data, cols, eps)
			wantDx, wantDGamma, wantDBeta := layerNormBackwardOracle(a.Data, gamma.Data, dOut.Data, wantMean, wantInv, cols)

			stats := &LayerNormStats{Mean: make([]float32, rows), InvStd: make([]float32, rows)}
			y := LayerNormForwardStats(a, gamma, beta, eps, stats)
			sameOracleBits(t, "LayerNorm forward "+what, y.Data, want)
			sameOracleBits(t, "LayerNorm mean "+what, stats.Mean, wantMean)
			sameOracleBits(t, "LayerNorm invStd "+what, stats.InvStd, wantInv)

			dx, dGamma, dBeta := New(rows, cols), New(cols), New(cols)
			LayerNormBackwardInto(dx, dGamma, dBeta, a, gamma, dOut, stats)
			sameOracleBits(t, "LayerNorm dx "+what, dx.Data, wantDx)
			sameOracleBits(t, "LayerNorm dGamma "+what, dGamma.Data, wantDGamma)
			sameOracleBits(t, "LayerNorm dBeta "+what, dBeta.Data, wantDBeta)

			dGamma, dBeta = New(cols), New(cols)
			LayerNormBackwardInto(nil, dGamma, dBeta, a, gamma, dOut, stats)
			sameOracleBits(t, "LayerNorm dGamma without dx "+what, dGamma.Data, wantDGamma)
			sameOracleBits(t, "LayerNorm dBeta without dx "+what, dBeta.Data, wantDBeta)
		}
	})
}

// TestLayerNormShardSplits: a shard boundary at any row, not only at
// the four-row kernels' multiples of 4, leaves every bit of the forward
// and of dx where the oracle puts it.
func TestLayerNormShardSplits(t *testing.T) {
	const rows, cols, eps = 13, 45, 1e-5
	g := NewRNG(62)
	a, gamma, beta, dOut := layerNormCase(g, rows, cols)
	want, wantMean, wantInv := layerNormForwardOracle(a.Data, gamma.Data, beta.Data, cols, eps)
	wantDx, _, _ := layerNormBackwardOracle(a.Data, gamma.Data, dOut.Data, wantMean, wantInv, cols)
	eachPath(t, func(path string) {
		for _, split := range []int{1, 2, 3, 5, 6, 7, 9, 11} {
			what := fmt.Sprintf("%s split %d", path, split)
			fwd := &kern{dst: make([]float32, rows*cols), a: a.Data, b: gamma.Data, c: beta.Data,
				d: make([]float32, rows), e: make([]float32, rows), i0: cols, f0: eps}
			shardLayerNorm(fwd, 0, split)
			shardLayerNorm(fwd, split, rows)
			sameOracleBits(t, "shardLayerNorm "+what, fwd.dst, want)
			sameOracleBits(t, "shardLayerNorm mean "+what, fwd.d, wantMean)
			sameOracleBits(t, "shardLayerNorm invStd "+what, fwd.e, wantInv)

			dx := &kern{dst: make([]float32, rows*cols), a: a.Data, b: gamma.Data, c: dOut.Data,
				d: wantMean, e: wantInv, i0: cols}
			shardLayerNormDx(dx, 0, split)
			shardLayerNormDx(dx, split, rows)
			sameOracleBits(t, "shardLayerNormDx "+what, dx.dst, wantDx)
		}
	})
}

// TestGELULayerNormShareInputsAcrossGoroutines: eight goroutines run
// GELU, GELU′ and LayerNorm's forward and backward over one shared
// input at once, and each gets the single-goroutine bits. Run it under
// -race.
func TestGELULayerNormShareInputsAcrossGoroutines(t *testing.T) {
	const rows, cols, eps = 37, 96, 1e-5
	g := NewRNG(63)
	a, gamma, beta, dOut := layerNormCase(g, rows, cols)
	type outs struct{ gelu, geluGrad, y, dx, dGamma, dBeta []float32 }
	run := func() outs {
		var o outs
		h := New(rows, cols)
		GELUInto(h, a)
		o.gelu = h.Data
		d := New(rows, cols)
		GELUGradInto(d, a, dOut)
		o.geluGrad = d.Data
		stats := &LayerNormStats{Mean: make([]float32, rows), InvStd: make([]float32, rows)}
		o.y = LayerNormForwardStats(a, gamma, beta, eps, stats).Data
		dx, dGamma, dBeta := New(rows, cols), New(cols), New(cols)
		LayerNormBackwardInto(dx, dGamma, dBeta, a, gamma, dOut, stats)
		o.dx, o.dGamma, o.dBeta = dx.Data, dGamma.Data, dBeta.Data
		return o
	}
	want := run()
	got := make([]outs, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 4; r++ {
				got[i] = run()
			}
		}()
	}
	wg.Wait()
	for i, o := range got {
		what := fmt.Sprintf("goroutine %d", i)
		sameBits(t, what+" GELU", o.gelu, want.gelu)
		sameBits(t, what+" GELU′", o.geluGrad, want.geluGrad)
		sameBits(t, what+" LayerNorm", o.y, want.y)
		sameBits(t, what+" LayerNorm dx", o.dx, want.dx)
		sameBits(t, what+" LayerNorm dGamma", o.dGamma, want.dGamma)
		sameBits(t, what+" LayerNorm dBeta", o.dBeta, want.dBeta)
	}
}
