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
	for i := start; i < end; i++ {
		kr.dst[i] = geluScalar(kr.a[i])
	}
}

// GELUGradInto writes gelu'(pre)·g into dst (all same element count).
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
func LayerNormBackwardInto(dx, dGamma, dBeta, a, gamma, dOut *Tensor, stats *LayerNormStats) {
	cols := a.shape[len(a.shape)-1]
	rows := a.Numel() / cols
	if dx.Numel() != a.Numel() || dGamma.Numel() != cols || dBeta.Numel() != cols {
		panic("tensor: LayerNormBackwardInto size mismatch")
	}
	// dGamma/dBeta accumulate across rows; keep that serial (cols is small)
	// and parallelize dx by rows.
	for r := 0; r < rows; r++ {
		base := r * cols
		mean, invStd := stats.Mean[r], stats.InvStd[r]
		for c := 0; c < cols; c++ {
			xn := (a.Data[base+c] - mean) * invStd
			dBeta.Data[c] += dOut.Data[base+c]
			dGamma.Data[c] += dOut.Data[base+c] * xn
		}
	}
	kr := getKern()
	kr.fn = shardLayerNormDx
	kr.dst, kr.a, kr.b, kr.c = dx.Data, a.Data, gamma.Data, dOut.Data
	kr.d, kr.e = stats.Mean, stats.InvStd
	kr.i0 = cols
	runKern(kr, rows)
}

func shardLayerNormDx(kr *kern, start, end int) {
	cols := kr.i0
	for r := start; r < end; r++ {
		base := r * cols
		mean, invStd := kr.d[r], kr.e[r]
		var sumDy, sumDyXn float64
		for c := 0; c < cols; c++ {
			dy := float64(kr.c[base+c] * kr.b[c])
			xn := float64((kr.a[base+c] - mean) * invStd)
			sumDy += dy
			sumDyXn += dy * xn
		}
		n := float64(cols)
		for c := 0; c < cols; c++ {
			dy := float64(kr.c[base+c] * kr.b[c])
			xn := float64((kr.a[base+c] - mean) * invStd)
			kr.dst[base+c] = float32(float64(invStd) * (dy - sumDy/n - xn*sumDyXn/n))
		}
	}
}
