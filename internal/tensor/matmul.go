package tensor

import "fmt"

// MatMul computes C = A·B for A [m,k] and B [k,n], sharding rows of A
// across goroutines. Inputs with more than two dimensions are treated as
// [prod(leading dims), last dim] matrices when their shapes are
// compatible.
func MatMul(a, b *Tensor) *Tensor {
	m, k := matShape(a)
	k2, n := matShape(b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims %v × %v", a.shape, b.shape))
	}
	out := New(m, n)
	matmulInto(out.Data, a.Data, b.Data, m, k, n)
	return out
}

// MatMulInto computes dst = A·B reusing dst's storage. dst must be
// [m,n]. Zeroing is fused into the kernel shards (each shard clears the
// output rows it owns), so large outputs never pay a single-threaded
// memset up front.
func MatMulInto(dst, a, b *Tensor) {
	m, k := matShape(a)
	k2, n := matShape(b)
	if k != k2 || dst.Numel() != m*n {
		panic("tensor: MatMulInto shape mismatch")
	}
	matmulInto(dst.Data, a.Data, b.Data, m, k, n)
}

// matShape views t as a 2-D matrix [rows, lastDim].
func matShape(t *Tensor) (rows, cols int) {
	if len(t.shape) == 0 {
		panic("tensor: matmul on scalar")
	}
	cols = t.shape[len(t.shape)-1]
	rows = t.Numel() / cols
	return rows, cols
}

// matmulInto computes a[m,k]·b[k,n] into out. Shards own their output
// rows outright (zero then accumulate), so out does not need to be
// pre-zeroed.
func matmulInto(out, a, b []float32, m, k, n int) {
	kr := getKern()
	kr.fn = shardMatMul
	kr.dst, kr.a, kr.b = out, a, b
	kr.i0, kr.i1 = k, n
	runKern(kr, m)
}

func shardMatMul(kr *kern, start, end int) {
	accumRows(kr.dst, kr.a, kr.b, start, end, kr.i0, kr.i1, kr.i0, 1)
}

// accumRows computes rows [start,end) of out = A·B for b [k,n], where
// A's element (i, p) sits at a[i*sa+p*sp]: (sa, sp) = (k, 1) reads a
// [m,k] A, and (1, m) reads a [k,m] one as its transpose, so one loop
// serves A·B and Aᵀ·B without a transposed copy. It zeroes the rows it
// owns first.
//
// Each pass over an output row consumes four k steps, so the row is
// loaded and stored once per four rows of b instead of once per row.
// The four products still join the element one at a time, in index
// order, so every output is the single in-order chain a naive dot
// product builds.
func accumRows(out, a, b []float32, start, end, k, n, sa, sp int) {
	for i := start; i < end; i++ {
		orow := out[i*n : (i+1)*n]
		clear(orow)
		ai := i * sa
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := a[ai+p*sp], a[ai+(p+1)*sp], a[ai+(p+2)*sp], a[ai+(p+3)*sp]
			b0 := b[p*n:][:len(orow)]
			b1 := b[(p+1)*n:][:len(orow)]
			b2 := b[(p+2)*n:][:len(orow)]
			b3 := b[(p+3)*n:][:len(orow)]
			for j := range orow {
				o := orow[j]
				o += a0 * b0[j]
				o += a1 * b1[j]
				o += a2 * b2[j]
				o += a3 * b3[j]
				orow[j] = o
			}
		}
		for ; p < k; p++ {
			av := a[ai+p*sp]
			brow := b[p*n:][:len(orow)]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

// matmulTRows computes rows [i0,i1) of A·Bᵀ·alpha into o. The kernel is
// register-blocked: four output columns share one streaming pass over
// the A row, and the dot products unroll the reduction four-wide. Each
// output element still accumulates its products in index order through a
// single chain, so results are bit-identical to the naive dot product.
func matmulTRows(o, a, b []float32, i0, i1, k, n int, alpha float32) {
	for i := i0; i < i1; i++ {
		arow := a[i*k : (i+1)*k]
		orow := o[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[j*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float32
			p := 0
			for ; p+4 <= k; p += 4 {
				a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
				s0 = s0 + a0*b0[p] + a1*b0[p+1] + a2*b0[p+2] + a3*b0[p+3]
				s1 = s1 + a0*b1[p] + a1*b1[p+1] + a2*b1[p+2] + a3*b1[p+3]
				s2 = s2 + a0*b2[p] + a1*b2[p+1] + a2*b2[p+2] + a3*b2[p+3]
				s3 = s3 + a0*b3[p] + a1*b3[p+1] + a2*b3[p+2] + a3*b3[p+3]
			}
			for ; p < k; p++ {
				av := arow[p]
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			orow[j] = s0 * alpha
			orow[j+1] = s1 * alpha
			orow[j+2] = s2 * alpha
			orow[j+3] = s3 * alpha
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s float32
			p := 0
			for ; p+4 <= k; p += 4 {
				s = s + arow[p]*brow[p] + arow[p+1]*brow[p+1] + arow[p+2]*brow[p+2] + arow[p+3]*brow[p+3]
			}
			for ; p < k; p++ {
				s += arow[p] * brow[p]
			}
			orow[j] = s * alpha
		}
	}
}

// MatMulT computes C = A·Bᵀ for A [m,k] and B [n,k]. This is the natural
// layout for computing attention scores (Q·Kᵀ) and for weight-gradient
// style products without materializing a transpose.
func MatMulT(a, b *Tensor) *Tensor {
	m, k := matShape(a)
	n, k2 := matShape(b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dims %v × %v", a.shape, b.shape))
	}
	out := New(m, n)
	kr := getKern()
	kr.fn = shardMatMulT
	kr.dst, kr.a, kr.b = out.Data, a.Data, b.Data
	kr.i0, kr.i1 = k, n
	kr.f0 = 1
	runKern(kr, m)
	return out
}

func shardMatMulT(kr *kern, start, end int) {
	matmulTRows(kr.dst, kr.a, kr.b, start, end, kr.i0, kr.i1, kr.f0)
}

// TMatMul computes C = Aᵀ·B for A [k,m] and B [k,n], i.e. the weight
// gradient product Xᵀ·dY.
func TMatMul(a, b *Tensor) *Tensor {
	k, m := matShape(a)
	k2, n := matShape(b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: TMatMul inner dims %v × %v", a.shape, b.shape))
	}
	out := New(m, n)
	// Shard over rows of the *output* to avoid write contention.
	kr := getKern()
	kr.fn = shardTMatMul
	kr.dst, kr.a, kr.b = out.Data, a.Data, b.Data
	kr.i0, kr.i1, kr.i2 = k, m, n
	runKern(kr, m)
	return out
}

func shardTMatMul(kr *kern, start, end int) {
	accumRows(kr.dst, kr.a, kr.b, start, end, kr.i0, kr.i2, 1, kr.i1)
}

// BatchMatMul computes, for each batch index, C[b] = A[b]·B[b] where
// a is [batch, m, k] and b is [batch, k, n].
func BatchMatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 3 || len(b.shape) != 3 || a.shape[0] != b.shape[0] || a.shape[2] != b.shape[1] {
		panic(fmt.Sprintf("tensor: BatchMatMul shapes %v × %v", a.shape, b.shape))
	}
	batch, m, k := a.shape[0], a.shape[1], a.shape[2]
	n := b.shape[2]
	out := New(batch, m, n)
	kr := getKern()
	kr.fn = shardBatchMatMul
	kr.dst, kr.a, kr.b = out.Data, a.Data, b.Data
	kr.i0, kr.i1, kr.i2 = m, k, n
	runKern(kr, batch)
	return out
}

func shardBatchMatMul(kr *kern, start, end int) {
	m, k, n := kr.i0, kr.i1, kr.i2
	for bi := start; bi < end; bi++ {
		ab := kr.a[bi*m*k : (bi+1)*m*k]
		bb := kr.b[bi*k*n : (bi+1)*k*n]
		ob := kr.dst[bi*m*n : (bi+1)*m*n]
		accumRows(ob, ab, bb, 0, m, k, n, k, 1)
	}
}

// BatchMatMulT computes, for each batch index, C[b] = A[b]·B[b]ᵀ where
// a is [batch, m, k] and b is [batch, n, k].
func BatchMatMulT(a, b *Tensor) *Tensor {
	if len(a.shape) != 3 || len(b.shape) != 3 || a.shape[0] != b.shape[0] || a.shape[2] != b.shape[2] {
		panic(fmt.Sprintf("tensor: BatchMatMulT shapes %v × %v", a.shape, b.shape))
	}
	batch, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(batch, m, n)
	batchMatMulTScaled(out, a, b, 1)
	return out
}

// BatchMatMulTScaled computes, per batch index, C[b] = alpha·A[b]·B[b]ᵀ
// — the fused attention-score kernel (Q·Kᵀ/√dh in one pass).
func BatchMatMulTScaled(a, b *Tensor, alpha float32) *Tensor {
	if len(a.shape) != 3 || len(b.shape) != 3 || a.shape[0] != b.shape[0] || a.shape[2] != b.shape[2] {
		panic(fmt.Sprintf("tensor: BatchMatMulTScaled shapes %v × %v", a.shape, b.shape))
	}
	out := New(a.shape[0], a.shape[1], b.shape[1])
	batchMatMulTScaled(out, a, b, alpha)
	return out
}

func batchMatMulTScaled(out, a, b *Tensor, alpha float32) {
	batch, m, k := a.shape[0], a.shape[1], a.shape[2]
	n := b.shape[1]
	kr := getKern()
	kr.fn = shardBatchMatMulT
	kr.dst, kr.a, kr.b = out.Data, a.Data, b.Data
	kr.i0, kr.i1, kr.i2 = m, k, n
	kr.f0 = alpha
	runKern(kr, batch)
}

func shardBatchMatMulT(kr *kern, start, end int) {
	m, k, n := kr.i0, kr.i1, kr.i2
	for bi := start; bi < end; bi++ {
		ab := kr.a[bi*m*k : (bi+1)*m*k]
		bb := kr.b[bi*n*k : (bi+1)*n*k]
		ob := kr.dst[bi*m*n : (bi+1)*m*n]
		matmulTRows(ob, ab, bb, 0, m, k, n, kr.f0)
	}
}

// BatchTMatMul computes, for each batch index, C[b] = A[b]ᵀ·B[b] where
// a is [batch, k, m] and b is [batch, k, n].
func BatchTMatMul(a, b *Tensor) *Tensor {
	if len(a.shape) != 3 || len(b.shape) != 3 || a.shape[0] != b.shape[0] || a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: BatchTMatMul shapes %v × %v", a.shape, b.shape))
	}
	batch, k, m := a.shape[0], a.shape[1], a.shape[2]
	n := b.shape[2]
	out := New(batch, m, n)
	kr := getKern()
	kr.fn = shardBatchTMatMul
	kr.dst, kr.a, kr.b = out.Data, a.Data, b.Data
	kr.i0, kr.i1, kr.i2 = k, m, n
	runKern(kr, batch)
	return out
}

func shardBatchTMatMul(kr *kern, start, end int) {
	k, m, n := kr.i0, kr.i1, kr.i2
	for bi := start; bi < end; bi++ {
		ab := kr.a[bi*k*m : (bi+1)*k*m]
		bb := kr.b[bi*k*n : (bi+1)*k*n]
		ob := kr.dst[bi*m*n : (bi+1)*m*n]
		accumRows(ob, ab, bb, 0, m, k, n, 1, m)
	}
}
