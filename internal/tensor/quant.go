package tensor

import (
	"fmt"
	"math"
	"sync"
)

// Int8 path for frozen-backbone projections. The backbone never trains
// under parallel-adapter fine-tuning, so its weight scales can be
// computed once at load time (symmetric per-output-channel absmax) and
// stay valid forever; activations are quantized dynamically per row
// inside the matmul shard. The int8×int8→int32 product dequantizes to
// fp32 in the epilogue, so callers see ordinary fp32 tensors and all
// downstream math (adapters, gradients, optimizer state) is untouched.
//
// Error contract: with per-row activation scale sa = amax_row/127 and
// per-column weight scale sw = wmax_col/127, each of the k product terms
// carries quantization error ≤ |w|·sa/2 + |a|·sw/2 + sa·sw/4, so
// |out - exact| ≤ k·(wmax·sa/2 + amax·sw/2 + sa·sw/4). Tests assert
// this bound; it is a tolerance contract, not a bitwise one.

// QuantizedWeight is an int8 per-output-channel quantization of a frozen
// [in, out] fp32 weight. Q stores the matrix transposed — row j holds
// output channel j's in weights contiguously — so the matmul streams
// both operands.
type QuantizedWeight struct {
	In, Out int
	Q       []int8    // [Out][In], transposed
	Scale   []float32 // len Out: fp32 value of one int8 step per channel
}

// QuantizeWeight builds the int8 form of a frozen [in, out] weight:
// symmetric absmax per output channel, scale = absmax/127. Channels that
// are entirely zero get scale 0 and a zero row.
func QuantizeWeight(w *Tensor) *QuantizedWeight {
	in, out := matShape(w)
	q := &QuantizedWeight{
		In:    in,
		Out:   out,
		Q:     make([]int8, in*out),
		Scale: make([]float32, out),
	}
	for j := 0; j < out; j++ {
		var amax float32
		for p := 0; p < in; p++ {
			v := w.Data[p*out+j]
			if v < 0 {
				v = -v
			}
			if v > amax {
				amax = v
			}
		}
		if amax == 0 {
			continue
		}
		scale := amax / 127
		q.Scale[j] = scale
		inv := 1 / scale
		qrow := q.Q[j*in : (j+1)*in]
		for p := 0; p < in; p++ {
			qrow[p] = quantClamp(w.Data[p*out+j] * inv)
		}
	}
	return q
}

// quantClamp rounds half away from zero and saturates to ±127 (symmetric
// range: -128 is never produced, so negation is always safe).
func quantClamp(v float32) int8 {
	if v >= 0 {
		v += 0.5
	} else {
		v -= 0.5
	}
	i := int32(v)
	if i > 127 {
		i = 127
	}
	if i < -127 {
		i = -127
	}
	return int8(i)
}

// Dequantize reconstructs the fp32 [in, out] weight the quantized form
// represents (for tests and debugging).
func (q *QuantizedWeight) Dequantize() *Tensor {
	w := New(q.In, q.Out)
	for j := 0; j < q.Out; j++ {
		s := q.Scale[j]
		qrow := q.Q[j*q.In : (j+1)*q.In]
		for p, qv := range qrow {
			w.Data[p*q.Out+j] = float32(qv) * s
		}
	}
	return w
}

// quantScratch holds the per-call int8 activation buffer; pooled so the
// serving/cache-fill hot path allocates nothing after warm-up.
type quantScratch struct{ qa []int8 }

var quantScratchPool = sync.Pool{New: func() any { return new(quantScratch) }}

// QuantMatMul computes a·W through the int8 path for a [rows, In],
// returning a fresh [rows, Out] fp32 tensor.
func QuantMatMul(a *Tensor, q *QuantizedWeight) *Tensor {
	rows, k := matShape(a)
	if k != q.In {
		panic(fmt.Sprintf("tensor: QuantMatMul inner dims %v × [%d,%d]", a.Shape(), q.In, q.Out))
	}
	out := New(rows, q.Out)
	quantMatMulInto(out.Data, a.Data, q, rows)
	return out
}

// QuantMatMulInto computes dst = a·W through the int8 path, reusing
// dst's storage. dst must be [rows, Out].
func QuantMatMulInto(dst, a *Tensor, q *QuantizedWeight) {
	rows, k := matShape(a)
	if k != q.In || dst.Numel() != rows*q.Out {
		panic("tensor: QuantMatMulInto shape mismatch")
	}
	quantMatMulInto(dst.Data, a.Data, q, rows)
}

func quantMatMulInto(dst, a []float32, q *QuantizedWeight, rows int) {
	sc := quantScratchPool.Get().(*quantScratch)
	if cap(sc.qa) < rows*q.In {
		sc.qa = make([]int8, rows*q.In)
	}
	qa := sc.qa[:rows*q.In]
	kr := getKern()
	kr.fn = shardQuantMatMul
	kr.dst, kr.a, kr.d = dst, a, q.Scale
	kr.i8a, kr.i8b = qa, q.Q
	kr.i0, kr.i1 = q.In, q.Out
	runKern(kr, rows)
	quantScratchPool.Put(sc)
}

// shardQuantMatMul owns rows [start,end) of the output, two at a time
// (an odd last row pairs with itself). It quantizes its own activation
// rows (dynamic symmetric absmax) into the shared scratch — disjoint
// per shard — runs the pair against every channel through int8Dots,
// then adds the k%16 tail and dequantizes in the epilogue,
// (float32(acc)·rscale)·colScale[j]. The int32 sums are exact, so the
// order the tile adds them in changes no bit.
func shardQuantMatMul(kr *kern, start, end int) {
	k, n := kr.i0, kr.i1
	k16 := k &^ 15
	for i := start; i < end; i += 2 {
		i1 := min(i+1, end-1)
		q0, q1 := kr.i8a[i*k:(i+1)*k], kr.i8a[i1*k:(i1+1)*k]
		o0, o1 := kr.dst[i*n:(i+1)*n], kr.dst[i1*n:(i1+1)*n]
		rs0, ok0 := quantizeRow(q0, kr.a[i*k:(i+1)*k])
		rs1, ok1 := rs0, ok0
		if i1 != i {
			rs1, ok1 = quantizeRow(q1, kr.a[i1*k:(i1+1)*k])
		}
		int8Dots(o0, o1, q0, q1, kr.i8b, k, k16)
		dequantRow(o0, q0, kr.i8b, k, k16, rs0, ok0, kr.d)
		if i1 != i {
			dequantRow(o1, q1, kr.i8b, k, k16, rs1, ok1, kr.d)
		}
	}
}

// quantizeRow quantizes one activation row into q and returns its
// scale. ok is false for an all-zero row, which leaves q alone: its
// output row is zero. With AVX2 the first len&^15 elements take the
// vector loops, which give the scalar bits.
func quantizeRow(q []int8, a []float32) (rscale float32, ok bool) {
	v := 0
	var amax float32
	if hasAVX2 && len(a) >= 16 {
		v = len(a) &^ 15
		amax = absMaxF32(&a[0], v)
	}
	for _, x := range a[v:] {
		if x < 0 {
			x = -x
		}
		if x > amax {
			amax = x
		}
	}
	if amax == 0 {
		return 0, false
	}
	rscale = amax / 127
	inv := 1 / rscale
	if v > 0 {
		_ = q[v-1]
		quantizeF32(&q[0], &a[0], v, inv)
	}
	for p, x := range a[v:] {
		q[v+p] = quantClamp(x * inv)
	}
	return rscale, true
}

// int8Dots leaves, in the bits of o0[j] and o1[j], the int32 sums
// a0·w[j] and a1·w[j] over p < k16 for every channel j of w
// [len(o0)][k]: the AVX2 tile where there is one, else the scalar loop
// below. int32 accumulation cannot overflow below k = 2^31/127² ≈ 133k,
// far above any model dimension here.
func int8Dots(o0, o1 []float32, a0, a1, w []int8, k, k16 int) {
	n := len(o0)
	if hasAVX2 && k16 > 0 && n > 0 {
		_, _, _ = o1[n-1], a0[k16-1], a1[k16-1]
		_ = w[(n-1)*k+k16-1]
		tileInt8x2(&o0[0], &o1[0], &a0[0], &a1[0], &w[0], k, k16, n)
		return
	}
	for j := range o0 {
		var s0, s1 int32
		for p, wv := range w[j*k:][:k16] {
			s0 += int32(a0[p]) * int32(wv)
			s1 += int32(a1[p]) * int32(wv)
		}
		o0[j] = math.Float32frombits(uint32(s0))
		o1[j] = math.Float32frombits(uint32(s1))
	}
}

// dequantRow finishes an output row int8Dots left int32 sums in: it
// adds the products over p ≥ k16 and scales each sum back to fp32,
// (float32(acc)·rscale)·colScale[j].
func dequantRow(o []float32, q, w []int8, k, k16 int, rscale float32, ok bool, colScale []float32) {
	if !ok {
		clear(o)
		return
	}
	if k16 < k {
		for j := range o {
			acc := int32(math.Float32bits(o[j]))
			wrow := w[j*k : (j+1)*k]
			for p := k16; p < k; p++ {
				acc += int32(q[p]) * int32(wrow[p])
			}
			o[j] = math.Float32frombits(uint32(acc))
		}
	}
	v := 0
	if hasAVX2 && len(o) >= 8 {
		v = len(o) &^ 7
		_ = colScale[v-1]
		dequantF32(&o[0], &colScale[0], v, rscale)
	}
	for j := v; j < len(o); j++ {
		o[j] = float32(int32(math.Float32bits(o[j]))) * rscale * colScale[j]
	}
}
