package tensor

import (
	"fmt"
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

// shardQuantMatMul owns rows [start,end) of the output: it quantizes its
// own activation rows (dynamic symmetric absmax) into the shared scratch
// — disjoint per shard — then runs the int8 dot products with fp32
// dequantization fused into the epilogue. On amd64 with AVX2 the dot
// products run 16 lanes at a time through dot2Int8AVX2; everywhere else
// the scalar loop below is the kernel. int32 accumulation cannot
// overflow below k = 2^31/127² ≈ 133k, far above any model dimension
// here.
func shardQuantMatMul(kr *kern, start, end int) {
	k, n := kr.i0, kr.i1
	qa, qw := kr.i8a, kr.i8b
	colScale := kr.d
	for i := start; i < end; i++ {
		arow := kr.a[i*k : (i+1)*k]
		qrow := qa[i*k : (i+1)*k]
		var amax float32
		for _, v := range arow {
			if v < 0 {
				v = -v
			}
			if v > amax {
				amax = v
			}
		}
		orow := kr.dst[i*n : (i+1)*n]
		if amax == 0 {
			clear(orow)
			continue
		}
		rscale := amax / 127
		inv := 1 / rscale
		for p, v := range arow {
			qrow[p] = quantClamp(v * inv)
		}
		j := 0
		if hasAVX2 {
			for ; j+2 <= n; j += 2 {
				acc0, acc1 := dot2Int8AVX2(qrow, qw[j*k:(j+1)*k], qw[(j+1)*k:(j+2)*k])
				orow[j] = float32(acc0) * rscale * colScale[j]
				orow[j+1] = float32(acc1) * rscale * colScale[j+1]
			}
			if j < n {
				wrow := qw[j*k : (j+1)*k]
				acc, _ := dot2Int8AVX2(qrow, wrow, wrow)
				orow[j] = float32(acc) * rscale * colScale[j]
				j = n
			}
			continue
		}
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
}
