package tensor

import (
	"fmt"
	"math"
)

// Fused elementwise kernels for the training hot path. The scalar math
// matches the composed ops it replaces exactly (same operation order per
// element), so swapping a composed chain for its fused kernel does not
// change a single bit of the result — only the number of passes and
// intermediate buffers.
//
// GELU, GELU′ and LayerNorm's passes (here and in ops.go) also have
// vector kernels in tile_amd64.s: GELU and GELU′ four float64 lanes at a
// time where hasAVX2 && hasFMA (their tanh replays math.tanh and
// math.Exp's fused branch), LayerNorm's row statistics one row per
// lane and its elementwise passes across columns where hasAVX2. Each
// kernel performs its scalar body's operations in the same order, so it
// gives the same bits; gelu_layernorm_test.go holds them to it. The
// scalar bodies stay: they are the oracle, the shard tails and the path
// on every other host.

// AddFlat accumulates src into dst elementwise, requiring only matching
// element counts (not shapes) — the gradient-accumulation primitive,
// where a [m·k]-viewed product accumulates into an [m,k]-shaped grad.
func AddFlat(dst, src *Tensor) {
	if len(dst.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: AddFlat size mismatch %d vs %d", len(dst.Data), len(src.Data)))
	}
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// AddRowBroadcastInPlace adds the vector v to every row of m in place
// (m's last dimension must equal len(v.Data)).
func AddRowBroadcastInPlace(m, v *Tensor) {
	cols := v.Numel()
	if cols == 0 || m.Numel()%cols != 0 {
		panic(fmt.Sprintf("tensor: AddRowBroadcastInPlace %v += %v", m.shape, v.shape))
	}
	rows := m.Numel() / cols
	for r := 0; r < rows; r++ {
		row := m.Data[r*cols : (r+1)*cols]
		for c, bv := range v.Data {
			row[c] += bv
		}
	}
}

// geluScalar is the tanh-approximated GELU used across the stack (the
// exact formula autograd differentiates).
func geluScalar(v float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	x := float64(v)
	return float32(0.5 * x * (1 + math.Tanh(c*(x+0.044715*x*x*x))))
}

// geluGradScalar is d GELU(x)/dx at pre-activation x.
func geluGradScalar(v float32) float32 {
	const c = 0.7978845608028654
	x := float64(v)
	u := c * (x + 0.044715*x*x*x)
	t := math.Tanh(u)
	du := c * (1 + 3*0.044715*x*x)
	return float32(0.5*(1+t) + 0.5*x*(1-t*t)*du)
}

// GELUInto writes gelu(a) into dst (same element count). dst may alias a.
func GELUInto(dst, a *Tensor) {
	if len(dst.Data) != len(a.Data) {
		panic("tensor: GELUInto size mismatch")
	}
	kr := getKern()
	kr.fn = shardGELU
	kr.dst, kr.a = dst.Data, a.Data
	runKern(kr, len(a.Data))
}

func shardGELU(kr *kern, start, end int) {
	if n := (end - start) &^ 3; n > 0 && hasAVX2 && hasFMA {
		geluF32(&kr.dst[start], &kr.a[start], n)
		start += n
	}
	for i := start; i < end; i++ {
		kr.dst[i] = geluScalar(kr.a[i])
	}
}

// GELUGradInto writes gelu'(pre)·g into dst (all same element count).
// dst may alias pre.
func GELUGradInto(dst, pre, g *Tensor) {
	if len(dst.Data) != len(pre.Data) || len(g.Data) != len(pre.Data) {
		panic("tensor: GELUGradInto size mismatch")
	}
	kr := getKern()
	kr.fn = shardGELUGrad
	kr.dst, kr.a, kr.b = dst.Data, pre.Data, g.Data
	runKern(kr, len(pre.Data))
}

func shardGELUGrad(kr *kern, start, end int) {
	if n := (end - start) &^ 3; n > 0 && hasAVX2 && hasFMA {
		geluGradF32(&kr.dst[start], &kr.a[start], &kr.b[start], n)
		start += n
	}
	for i := start; i < end; i++ {
		kr.dst[i] = kr.b[i] * geluGradScalar(kr.a[i])
	}
}

// SoftmaxInPlace replaces a with its row-wise softmax over the last
// dimension. Same arithmetic as Softmax, zero extra memory.
func SoftmaxInPlace(a *Tensor) {
	cols := a.shape[len(a.shape)-1]
	rows := a.Numel() / cols
	kr := getKern()
	kr.fn = shardSoftmaxInPlace
	kr.a = a.Data
	kr.i0 = cols
	runKern(kr, rows)
}

func shardSoftmaxInPlace(kr *kern, start, end int) {
	softmaxRows(kr.a, kr.a, start, end, kr.i0)
}

// softmaxRows is the row-wise softmax Softmax and SoftmaxInPlace share:
// max-subtracted, float64 exp and sum, so rows survive ±1e4-magnitude
// logits without overflow and all-equal rows come out exactly uniform.
// dst may alias a.
func softmaxRows(dst, a []float32, start, end, cols int) {
	for r := start; r < end; r++ {
		base := r * cols
		maxv := a[base]
		for c := 1; c < cols; c++ {
			if a[base+c] > maxv {
				maxv = a[base+c]
			}
		}
		var sum float64
		for c := 0; c < cols; c++ {
			e := math.Exp(float64(a[base+c] - maxv))
			dst[base+c] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for c := 0; c < cols; c++ {
			dst[base+c] *= inv
		}
	}
}

// LayerNormBackwardInto computes the gradients of LayerNormForward
// given the upstream gradient dOut, writing dX, dGamma and dBeta into
// caller-owned (zeroed) buffers, so the gradients can come from the pool.
// dx may be nil: an input that takes no gradient (a frozen backbone
// tap) skips the dx passes altogether.
func LayerNormBackwardInto(dx, dGamma, dBeta, a, gamma, dOut *Tensor, stats *LayerNormStats) {
	cols := a.shape[len(a.shape)-1]
	rows := a.Numel() / cols
	if (dx != nil && dx.Numel() != a.Numel()) || dGamma.Numel() != cols || dBeta.Numel() != cols {
		panic("tensor: LayerNormBackwardInto size mismatch")
	}
	layerNormGradGB(dGamma.Data, dBeta.Data, a.Data, dOut.Data, stats.Mean, stats.InvStd, cols)
	if dx == nil {
		return
	}
	kr := getKern()
	kr.fn = shardLayerNormDx
	kr.dst, kr.a, kr.b, kr.c = dx.Data, a.Data, gamma.Data, dOut.Data
	kr.d, kr.e = stats.Mean, stats.InvStd
	kr.i0 = cols
	runKern(kr, rows)
}

// layerNormGradGB accumulates dGamma and dBeta: each column sums its
// rows in row order. The pass runs on the calling goroutine: it streams
// a and dOut once, row by row, and is bound by memory, where a split of
// the columns between workers made each worker's stream sparser and read
// slower than one stream. On AVX2, lnGradGB covers the columns up to the
// last multiple of 8; the rest take the scalar body.
func layerNormGradGB(dGamma, dBeta, a, dOut, means, invStds []float32, cols int) {
	rows := len(means)
	c0 := 0
	if n := cols &^ 7; n > 0 && rows > 0 && hasAVX2 {
		lnGradGB(&dGamma[0], &dBeta[0], &a[0], &dOut[0], &means[0], &invStds[0], rows, cols, n)
		c0 = n
	}
	for r := 0; r < rows; r++ {
		base := r * cols
		mean, invStd := means[r], invStds[r]
		for c := c0; c < cols; c++ {
			xn := (a[base+c] - mean) * invStd
			dBeta[c] += dOut[base+c]
			dGamma[c] += dOut[base+c] * xn
		}
	}
}

// shardLayerNormDx writes dx over rows [start, end): two float64 sums
// per row, then one pass over the row. On AVX2 the sums run four rows at
// a time (lnDxSums4, one lane per row) and the pass four columns at a
// time (lnDxF32); shard tails and other hosts take the scalar body.
func shardLayerNormDx(kr *kern, start, end int) {
	for r := start; r < end; {
		var sums [8]float64 // Σ dy for up to four rows, then Σ dy·xn
		n := 1
		if hasAVX2 && r+4 <= end {
			base := r * kr.i0
			lnDxSums4(&kr.a[base], &kr.c[base], &kr.b[0], &kr.d[r], &kr.e[r], kr.i0, &sums)
			n = 4
		} else {
			sums[0], sums[4] = layerNormDxSums(kr, r)
		}
		for q := 0; q < n; q++ {
			layerNormDxRow(kr, r+q, sums[q], sums[4+q])
		}
		r += n
	}
}

// layerNormDxSums is row r's Σ dy and Σ dy·xn, dy = dOut·gamma and
// xn = (a-mean)·invStd, in column order.
func layerNormDxSums(kr *kern, r int) (sumDy, sumDyXn float64) {
	cols := kr.i0
	base := r * cols
	mean, invStd := kr.d[r], kr.e[r]
	for c := 0; c < cols; c++ {
		dy := float64(kr.c[base+c] * kr.b[c])
		xn := float64((kr.a[base+c] - mean) * invStd)
		sumDy += dy
		sumDyXn += dy * xn
	}
	return sumDy, sumDyXn
}

// layerNormDxRow writes row r of dx from its two sums.
func layerNormDxRow(kr *kern, r int, sumDy, sumDyXn float64) {
	cols := kr.i0
	base := r * cols
	mean, invStd := kr.d[r], kr.e[r]
	n := float64(cols)
	c := 0
	if m := cols &^ 3; m > 0 && hasAVX2 {
		lnDxF32(&kr.dst[base], &kr.a[base], &kr.b[0], &kr.c[base], m, mean, invStd, sumDy/n, sumDyXn, n)
		c = m
	}
	for ; c < cols; c++ {
		dy := float64(kr.c[base+c] * kr.b[c])
		xn := float64((kr.a[base+c] - mean) * invStd)
		kr.dst[base+c] = float32(float64(invStd) * (dy - sumDy/n - xn*sumDyXn/n))
	}
}

// AdamVector runs Adam's elementwise update eight lanes wide over the
// longest prefix of p whose length is a multiple of 8, and returns that
// length; it returns 0, touching nothing, where AVX2 is missing. The
// optimizer's scalar body (train.Adam) does the rest of the elements,
// all of them on such a host, and is the oracle the kernel is tested
// against: adamF32 performs its operations in its order, so each
// element gets the same bits. g, m and v are at least as long as p;
// bc1 and bc2 are the step's bias corrections.
func AdamVector(p, g, m, v []float32, lr, beta1, beta2, eps, bc1, bc2 float32) int {
	n := len(p) &^ 7
	if !hasAVX2 || n == 0 {
		return 0
	}
	if len(g) < n || len(m) < n || len(v) < n {
		panic("tensor: AdamVector size mismatch")
	}
	adamF32(&p[0], &g[0], &m[0], &v[0], n, beta1, 1-beta1, beta2, 1-beta2, bc1, bc2, lr, eps)
	return n
}
