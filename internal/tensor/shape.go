package tensor

import "fmt"

// Transpose2D returns the transpose of a 2-D-viewed tensor [m,n] → [n,m].
func Transpose2D(a *Tensor) *Tensor {
	m, n := matShape(a)
	out := New(n, m)
	kr := getKern()
	kr.fn = shardTranspose2D
	kr.dst, kr.a = out.Data, a.Data
	kr.i0, kr.i1 = m, n
	runKern(kr, m)
	return out
}

func shardTranspose2D(kr *kern, start, end int) {
	m, n := kr.i0, kr.i1
	for i := start; i < end; i++ {
		for j := 0; j < n; j++ {
			kr.dst[j*m+i] = kr.a[i*n+j]
		}
	}
}

// SplitHeads reshapes [batch, seq, heads*dh] into [batch*heads, seq, dh],
// the layout consumed by batched attention matmuls.
func SplitHeads(a *Tensor, heads int) *Tensor {
	if len(a.shape) != 3 {
		panic(fmt.Sprintf("tensor: SplitHeads on shape %v", a.shape))
	}
	batch, seq, d := a.shape[0], a.shape[1], a.shape[2]
	if d%heads != 0 {
		panic(fmt.Sprintf("tensor: SplitHeads %d heads does not divide dim %d", heads, d))
	}
	dh := d / heads
	out := New(batch*heads, seq, dh)
	kr := getKern()
	kr.fn = shardSplitHeads
	kr.dst, kr.a = out.Data, a.Data
	kr.i0, kr.i1 = seq, heads
	kr.i2 = dh
	runKern(kr, batch)
	return out
}

func shardSplitHeads(kr *kern, start, end int) {
	seq, heads, dh := kr.i0, kr.i1, kr.i2
	d := heads * dh
	for b := start; b < end; b++ {
		for s := 0; s < seq; s++ {
			src := kr.a[(b*seq+s)*d : (b*seq+s+1)*d]
			for h := 0; h < heads; h++ {
				dst := kr.dst[((b*heads+h)*seq+s)*dh : ((b*heads+h)*seq+s+1)*dh]
				copy(dst, src[h*dh:(h+1)*dh])
			}
		}
	}
}

// MergeHeads inverts SplitHeads: [batch*heads, seq, dh] → [batch, seq, heads*dh].
func MergeHeads(a *Tensor, heads int) *Tensor {
	if len(a.shape) != 3 || a.shape[0]%heads != 0 {
		panic(fmt.Sprintf("tensor: MergeHeads on shape %v with %d heads", a.shape, heads))
	}
	batch := a.shape[0] / heads
	seq, dh := a.shape[1], a.shape[2]
	d := heads * dh
	out := New(batch, seq, d)
	kr := getKern()
	kr.fn = shardMergeHeads
	kr.dst, kr.a = out.Data, a.Data
	kr.i0, kr.i1 = seq, heads
	kr.i2 = dh
	runKern(kr, batch)
	return out
}

func shardMergeHeads(kr *kern, start, end int) {
	seq, heads, dh := kr.i0, kr.i1, kr.i2
	d := heads * dh
	for b := start; b < end; b++ {
		for s := 0; s < seq; s++ {
			dst := kr.dst[(b*seq+s)*d : (b*seq+s+1)*d]
			for h := 0; h < heads; h++ {
				src := kr.a[((b*heads+h)*seq+s)*dh : ((b*heads+h)*seq+s+1)*dh]
				copy(dst[h*dh:(h+1)*dh], src)
			}
		}
	}
}

// Concat concatenates tensors along dimension 0. All inputs must share
// trailing dimensions.
func Concat(ts ...*Tensor) *Tensor {
	if len(ts) == 0 {
		panic("tensor: Concat of nothing")
	}
	inner := 1
	for _, d := range ts[0].shape[1:] {
		inner *= d
	}
	rows := 0
	for _, t := range ts {
		ti := 1
		for _, d := range t.shape[1:] {
			ti *= d
		}
		if ti != inner {
			panic("tensor: Concat trailing-shape mismatch")
		}
		rows += t.shape[0]
	}
	shape := append([]int{rows}, ts[0].shape[1:]...)
	out := New(shape...)
	off := 0
	for _, t := range ts {
		copy(out.Data[off:], t.Data)
		off += t.Numel()
	}
	return out
}

// SliceRows returns rows [start, end) along dimension 0 as a copy.
func SliceRows(a *Tensor, start, end int) *Tensor {
	if start < 0 || end > a.shape[0] || start > end {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) of shape %v", start, end, a.shape))
	}
	inner := a.Numel() / a.shape[0]
	shape := append([]int{end - start}, a.shape[1:]...)
	out := New(shape...)
	copy(out.Data, a.Data[start*inner:end*inner])
	return out
}

// Rows views the tensor as [rows, cols] with cols being the last dim.
func Rows(a *Tensor) (rows, cols int) { return matShape(a) }

// MeanSeq averages [batch, seq, d] over the sequence dimension into
// [batch, d]: each output sums its seq inputs in position order, then
// scales by 1/seq.
func MeanSeq(a *Tensor) *Tensor {
	batch, seq, d := a.shape[0], a.shape[1], a.shape[2]
	out := New(batch, d)
	for b := 0; b < batch; b++ {
		for s := 0; s < seq; s++ {
			base := (b*seq + s) * d
			for c := 0; c < d; c++ {
				out.Data[b*d+c] += a.Data[base+c]
			}
		}
	}
	ScaleInPlace(out, 1/float32(seq))
	return out
}

// BroadcastSeq repeats each row of [batch, d] seq times into
// [batch, seq, d] (the inverse shape of MeanSeq).
func BroadcastSeq(a *Tensor, seq int) *Tensor {
	batch, d := a.shape[0], a.shape[1]
	out := New(batch, seq, d)
	for b := 0; b < batch; b++ {
		src := a.Data[b*d : (b+1)*d]
		for s := 0; s < seq; s++ {
			copy(out.Data[(b*seq+s)*d:(b*seq+s+1)*d], src)
		}
	}
	return out
}
