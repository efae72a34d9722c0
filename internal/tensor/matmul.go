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
	out := newDirty(m, n)
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
// [m,k] A, and (1, m) reads a [k,m] one as its transpose, so one body
// serves A·B and Aᵀ·B without a transposed copy; A·Bᵀ transposes B
// into a pooled panel and runs here too (MatMulT). It owns the rows it
// writes: nothing needs to be zeroed first.
//
// With AVX2 the first n&^15 columns run on the register tiles in
// tile_amd64.s — 4 rows × 16 columns at a time, or 4 × 32 on zmm where
// hasAVX512 (a 16-column remainder keeps the ymm tile), then one row at
// a time for the rows left over — and the remaining columns on the
// scalar body. All of them build every output element as the single
// in-order chain a naive dot product builds (each product rounded, then
// added), so the split changes no bit.
func accumRows(out, a, b []float32, start, end, k, n, sa, sp int) {
	j0 := 0
	if hasAVX2 && k > 0 && n >= 16 && start < end {
		j0 = n &^ 15
		// Every index the tiles touch is below these, so a bad shape
		// panics here instead of reading past a slice.
		_ = a[(end-1)*sa+(k-1)*sp]
		_ = b[(k-1)*n+j0-1]
		_ = out[(end-1)*n+j0-1]
		// Columns outermost: every 4-row tile of the shard reuses one
		// column strip of b while it is still cached.
		r4 := start + (end-start)&^3
		j := 0
		if hasAVX512 {
			for ; j+32 <= j0; j += 32 {
				for i := start; i < r4; i += 4 {
					tileF32x4z(&out[i*n+j], &a[i*sa], &b[j], k, n, sa, sp)
				}
			}
		}
		for ; j < j0; j += 16 {
			for i := start; i < r4; i += 4 {
				tileF32x4(&out[i*n+j], &a[i*sa], &b[j], k, n, sa, sp)
			}
		}
		for i := r4; i < end; i++ {
			clear(out[i*n : i*n+j0])
			rowF32(&out[i*n], &a[i*sa], &b[0], k, n, sp, j0)
		}
		if j0 == n {
			return
		}
	}
	accumRowsScalar(out, a, b, start, end, k, n, sa, sp, j0)
}

// accumRowsScalar is accumRows' scalar body over columns [j0, n): the
// whole product where AVX2 is missing, the column tail beside the
// tiles, and the oracle the tiles are tested against. Each pass over
// an output row consumes four k steps, so the row is loaded and stored
// once per four rows of b; the four products still join the element
// one at a time, in index order.
func accumRowsScalar(out, a, b []float32, start, end, k, n, sa, sp, j0 int) {
	for i := start; i < end; i++ {
		orow := out[i*n+j0 : (i+1)*n]
		clear(orow)
		ai := i * sa
		p := 0
		for ; p+4 <= k; p += 4 {
			a0, a1, a2, a3 := a[ai+p*sp], a[ai+(p+1)*sp], a[ai+(p+2)*sp], a[ai+(p+3)*sp]
			b0 := b[p*n+j0:][:len(orow)]
			b1 := b[(p+1)*n+j0:][:len(orow)]
			b2 := b[(p+2)*n+j0:][:len(orow)]
			b3 := b[(p+3)*n+j0:][:len(orow)]
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
			brow := b[p*n+j0:][:len(orow)]
			for j := range orow {
				orow[j] += av * brow[j]
			}
		}
	}
}

// transposeRows writes rows [start,end) of src [rows,cols] into dst
// [cols,rows] as its columns, every element of them. It moves eight
// source rows at a time: for each column j the eight values land side
// by side in dst's row j, one short contiguous store instead of eight
// scattered ones, while the eight source rows stream in order.
func transposeRows(dst, src []float32, rows, cols, start, end int) {
	i := start
	for ; i+8 <= end; i += 8 {
		s0 := src[i*cols : (i+1)*cols]
		s1 := src[(i+1)*cols:][:len(s0)]
		s2 := src[(i+2)*cols:][:len(s0)]
		s3 := src[(i+3)*cols:][:len(s0)]
		s4 := src[(i+4)*cols:][:len(s0)]
		s5 := src[(i+5)*cols:][:len(s0)]
		s6 := src[(i+6)*cols:][:len(s0)]
		s7 := src[(i+7)*cols:][:len(s0)]
		for j := range s0 {
			d := dst[j*rows+i : j*rows+i+8 : j*rows+i+8]
			d[0], d[1], d[2], d[3] = s0[j], s1[j], s2[j], s3[j]
			d[4], d[5], d[6], d[7] = s4[j], s5[j], s6[j], s7[j]
		}
	}
	for ; i < end; i++ {
		for j, v := range src[i*cols : (i+1)*cols] {
			dst[j*rows+i] = v
		}
	}
}

// MatMulT computes C = A·Bᵀ for A [m,k] and B [n,k]. This is the natural
// layout for computing attention scores (Q·Kᵀ) and for weight-gradient
// style products without materializing a transpose: B is transposed
// into a pooled panel, and the product is A·B over it.
func MatMulT(a, b *Tensor) *Tensor {
	m, k := matShape(a)
	n, k2 := matShape(b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dims %v × %v", a.shape, b.shape))
	}
	out := newDirty(m, n)
	panel := getDirty(k * n)
	kr := getKern()
	kr.fn = shardTranspose2D
	kr.dst, kr.a = panel, b.Data
	kr.i0, kr.i1 = n, k
	runKern(kr, n)
	matmulInto(out.Data, a.Data, panel, m, k, n)
	Put(panel)
	return out
}

// TMatMul computes C = Aᵀ·B for A [k,m] and B [k,n], i.e. the weight
// gradient product Xᵀ·dY.
func TMatMul(a, b *Tensor) *Tensor {
	k, m := matShape(a)
	k2, n := matShape(b)
	if k != k2 {
		panic(fmt.Sprintf("tensor: TMatMul inner dims %v × %v", a.shape, b.shape))
	}
	out := newDirty(m, n)
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
	panel := Get(k * n)
	for bi := start; bi < end; bi++ {
		transposeRows(panel, kr.b[bi*n*k:(bi+1)*n*k], n, k, 0, n)
		ob := kr.dst[bi*m*n : (bi+1)*m*n]
		accumRows(ob, kr.a[bi*m*k:(bi+1)*m*k], panel, 0, m, k, n, k, 1)
		// The alpha epilogue: one rounding per element after its
		// chain, as s*alpha. Multiplying by 1 changes no bit.
		if alpha := kr.f0; alpha != 1 {
			for j := range ob {
				ob[j] *= alpha
			}
		}
	}
	Put(panel)
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
