package tensor

import (
	"fmt"
	"math"
)

func checkSame(op string, a, b *Tensor) {
	if !SameShape(a, b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSame("Add", a, b)
	out := newDirty(a.shape...)
	for i := range out.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	checkSame("Mul", a, b)
	out := New(a.shape...)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Scale returns s * a.
func Scale(a *Tensor, s float32) *Tensor {
	out := New(a.shape...)
	for i := range out.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

// AddInPlace accumulates b into a (a += b).
func AddInPlace(a, b *Tensor) {
	checkSame("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// AxpyInPlace computes a += s*b.
func AxpyInPlace(a *Tensor, s float32, b *Tensor) {
	checkSame("AxpyInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += s * b.Data[i]
	}
}

// ScaleInPlace multiplies a by s in place.
func ScaleInPlace(a *Tensor, s float32) {
	for i := range a.Data {
		a.Data[i] *= s
	}
}

// Apply returns f applied elementwise to a.
func Apply(a *Tensor, f func(float32) float32) *Tensor {
	out := New(a.shape...)
	for i, v := range a.Data {
		out.Data[i] = f(v)
	}
	return out
}

// AddRowBroadcast returns m + v where m is [rows, cols] (or any shape whose
// last dimension equals len(v.Data)) and v is broadcast across rows.
func AddRowBroadcast(m, v *Tensor) *Tensor {
	cols := v.Numel()
	if m.Numel()%cols != 0 {
		panic(fmt.Sprintf("tensor: AddRowBroadcast %v + %v", m.shape, v.shape))
	}
	out := New(m.shape...)
	rows := m.Numel() / cols
	for r := 0; r < rows; r++ {
		base := r * cols
		for c := 0; c < cols; c++ {
			out.Data[base+c] = m.Data[base+c] + v.Data[c]
		}
	}
	return out
}

// Sum returns the sum of all elements (accumulated in float64).
func Sum(a *Tensor) float32 {
	var s float64
	for _, v := range a.Data {
		s += float64(v)
	}
	return float32(s)
}

// Mean returns the arithmetic mean of all elements.
func Mean(a *Tensor) float32 {
	if a.Numel() == 0 {
		return 0
	}
	return Sum(a) / float32(a.Numel())
}

// SumRows collapses an [rows, cols]-viewed tensor to a [cols] vector by
// summing across rows. cols is taken from the last dimension of a.
func SumRows(a *Tensor) *Tensor {
	cols := a.shape[len(a.shape)-1]
	rows := a.Numel() / cols
	out := New(cols)
	for r := 0; r < rows; r++ {
		base := r * cols
		for c := 0; c < cols; c++ {
			out.Data[c] += a.Data[base+c]
		}
	}
	return out
}

// MaxAbs returns the maximum absolute element value.
func MaxAbs(a *Tensor) float32 {
	var m float32
	for _, v := range a.Data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMaxRows returns, for an [rows, cols]-viewed tensor, the index of the
// maximum element in each row.
func ArgMaxRows(a *Tensor) []int {
	cols := a.shape[len(a.shape)-1]
	rows := a.Numel() / cols
	out := make([]int, rows)
	for r := 0; r < rows; r++ {
		base := r * cols
		best, bestIdx := a.Data[base], 0
		for c := 1; c < cols; c++ {
			if a.Data[base+c] > best {
				best, bestIdx = a.Data[base+c], c
			}
		}
		out[r] = bestIdx
	}
	return out
}

// Softmax computes a row-wise softmax over the last dimension.
func Softmax(a *Tensor) *Tensor {
	out := New(a.shape...)
	cols := a.shape[len(a.shape)-1]
	rows := a.Numel() / cols
	kr := getKern()
	kr.fn = shardSoftmax
	kr.dst, kr.a = out.Data, a.Data
	kr.i0 = cols
	runKern(kr, rows)
	return out
}

func shardSoftmax(kr *kern, start, end int) {
	softmaxRows(kr.dst, kr.a, start, end, kr.i0)
}

// LogSoftmax computes a numerically stable row-wise log-softmax over the
// last dimension.
func LogSoftmax(a *Tensor) *Tensor {
	out := New(a.shape...)
	cols := a.shape[len(a.shape)-1]
	rows := a.Numel() / cols
	kr := getKern()
	kr.fn = shardLogSoftmax
	kr.dst, kr.a = out.Data, a.Data
	kr.i0 = cols
	runKern(kr, rows)
	return out
}

func shardLogSoftmax(kr *kern, start, end int) {
	cols := kr.i0
	for r := start; r < end; r++ {
		base := r * cols
		maxv := kr.a[base]
		for c := 1; c < cols; c++ {
			if kr.a[base+c] > maxv {
				maxv = kr.a[base+c]
			}
		}
		var sum float64
		for c := 0; c < cols; c++ {
			sum += math.Exp(float64(kr.a[base+c] - maxv))
		}
		lse := float32(math.Log(sum)) + maxv
		for c := 0; c < cols; c++ {
			kr.dst[base+c] = kr.a[base+c] - lse
		}
	}
}

// LayerNormStats holds the per-row mean and inverse standard deviation
// computed by LayerNormForward; the backward pass reuses them.
type LayerNormStats struct {
	Mean   []float32
	InvStd []float32
}

// LayerNormForward normalizes each row of a (over the last dimension) to
// zero mean and unit variance, then applies the affine transform
// gamma*x + beta. eps stabilizes the variance.
func LayerNormForward(a, gamma, beta *Tensor, eps float32) (*Tensor, *LayerNormStats) {
	rows := a.Numel() / a.shape[len(a.shape)-1]
	stats := &LayerNormStats{Mean: make([]float32, rows), InvStd: make([]float32, rows)}
	return LayerNormForwardStats(a, gamma, beta, eps, stats), stats
}

// LayerNormForwardStats is LayerNormForward writing row statistics into
// caller-provided buffers (len == rows), so they can come from the pool.
func LayerNormForwardStats(a, gamma, beta *Tensor, eps float32, stats *LayerNormStats) *Tensor {
	cols := a.shape[len(a.shape)-1]
	if gamma.Numel() != cols || beta.Numel() != cols {
		panic("tensor: LayerNorm gamma/beta size mismatch")
	}
	rows := a.Numel() / cols
	if len(stats.Mean) != rows || len(stats.InvStd) != rows {
		panic("tensor: LayerNorm stats size mismatch")
	}
	out := newDirty(a.shape...) // every row is written by shardLayerNorm
	kr := getKern()
	kr.fn = shardLayerNorm
	kr.dst, kr.a, kr.b, kr.c = out.Data, a.Data, gamma.Data, beta.Data
	kr.d, kr.e = stats.Mean, stats.InvStd
	kr.i0 = cols
	kr.f0 = eps
	runKern(kr, rows)
	return out
}

// shardLayerNorm normalizes rows [start, end). On AVX2 the row
// statistics run four rows at a time (lnStats4: one float64 lane per
// row, each in its row's order) and the normalize pass eight columns at
// a time (lnNormF32); shard tails and every other host take the scalar
// body, layerNormStats and the float32 loop in layerNormRow.
func shardLayerNorm(kr *kern, start, end int) {
	cols := kr.i0
	for r := start; r < end; {
		n := 1
		if hasAVX2 && r+4 <= end {
			lnStats4(&kr.a[r*cols], cols, kr.f0, &kr.d[r], &kr.e[r])
			n = 4
		} else {
			kr.d[r], kr.e[r] = layerNormStats(kr.a[r*cols:(r+1)*cols], kr.f0)
		}
		for q := r; q < r+n; q++ {
			base := q * cols
			layerNormRow(kr.dst[base:base+cols], kr.a[base:base+cols], kr.b, kr.c, kr.d[q], kr.e[q])
		}
		r += n
	}
}

// layerNormStats is one row's mean and 1/sqrt(variance+eps): float64
// sums in column order, rounded to float32 once.
func layerNormStats(row []float32, eps float32) (mean, invStd float32) {
	var m float64
	for _, v := range row {
		m += float64(v)
	}
	m /= float64(len(row))
	var variance float64
	for _, v := range row {
		d := float64(v) - m
		variance += d * d
	}
	variance /= float64(len(row))
	return float32(m), float32(1 / math.Sqrt(variance+float64(eps)))
}

// layerNormRow writes ((a-mean)·invStd)·gamma + beta over one row.
func layerNormRow(dst, a, gamma, beta []float32, mean, invStd float32) {
	c := 0
	if n := len(a) &^ 7; n > 0 && hasAVX2 {
		lnNormF32(&dst[0], &a[0], &gamma[0], &beta[0], n, mean, invStd)
		c = n
	}
	for ; c < len(a); c++ {
		dst[c] = (a[c]-mean)*invStd*gamma[c] + beta[c]
	}
}
