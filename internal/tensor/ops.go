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
	out := New(a.shape...)
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
	out := New(a.shape...)
	kr := getKern()
	kr.fn = shardLayerNorm
	kr.dst, kr.a, kr.b, kr.c = out.Data, a.Data, gamma.Data, beta.Data
	kr.d, kr.e = stats.Mean, stats.InvStd
	kr.i0 = cols
	kr.f0 = eps
	runKern(kr, rows)
	return out
}

func shardLayerNorm(kr *kern, start, end int) {
	cols := kr.i0
	for r := start; r < end; r++ {
		base := r * cols
		var mean float64
		for c := 0; c < cols; c++ {
			mean += float64(kr.a[base+c])
		}
		mean /= float64(cols)
		var variance float64
		for c := 0; c < cols; c++ {
			d := float64(kr.a[base+c]) - mean
			variance += d * d
		}
		variance /= float64(cols)
		invStd := 1 / math.Sqrt(variance+float64(kr.f0))
		kr.d[r] = float32(mean)
		kr.e[r] = float32(invStd)
		for c := 0; c < cols; c++ {
			norm := (kr.a[base+c] - float32(mean)) * float32(invStd)
			kr.dst[base+c] = norm*kr.b[c] + kr.c[c]
		}
	}
}
