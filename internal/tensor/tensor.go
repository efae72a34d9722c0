// Package tensor implements dense float32 tensors and the numerical
// kernels (elementwise ops, reductions, parallel matrix multiplication,
// softmax, layer normalization) that the PAC training stack is built on.
//
// Tensors are row-major and own their backing slice. Shapes are immutable
// after construction; operations either allocate a fresh result or write
// into an explicit destination. All heavy kernels (matmul and friends)
// shard work across goroutines.
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense, row-major float32 tensor.
type Tensor struct {
	shape []int
	Data  []float32
}

// New returns a zero-filled tensor of the given shape. The backing
// buffer comes from the size-class pool (see pool.go): tensors that are
// later handed to Put/PutTensor — directly or via autograd graph
// teardown — are recycled instead of becoming garbage.
// Tensors that are never returned are simply collected by the GC, so
// callers outside the training hot path need not care.
func New(shape ...int) *Tensor {
	// Header and shape slice come from the shell pool too, so a fully
	// recycled tensor (PutTensor or graph teardown) costs zero allocs
	// the next time around.
	t := shellPool.Get().(*Tensor)
	t.shape = append(t.shape[:0], shape...)
	t.Data = Get(numel(shape))
	return t
}

// newDirty is New without the zeroing (getDirty), for the product
// entry points whose kernel writes every element of the result.
func newDirty(shape ...int) *Tensor {
	t := shellPool.Get().(*Tensor)
	t.shape = append(t.shape[:0], shape...)
	t.Data = getDirty(numel(shape))
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	if len(data) != numel(shape) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: data}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Numel returns the total number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's data with a new shape. The element
// count must be unchanged.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if numel(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{shape: append([]int(nil), shape...), Data: t.Data}
}

// SetShape re-views t in place with a new shape of the same element
// count, without allocating a view header. Only safe on tensors whose
// header the caller exclusively owns (e.g. a kernel result it just
// produced).
func (t *Tensor) SetShape(shape ...int) {
	if numel(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	t.shape = append(t.shape[:0], shape...)
}

// SameShape reports whether a and b have identical shapes.
func SameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}

// Zero sets every element of t to 0 in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element of t to v in place.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// CopyFrom copies src's data into t. Shapes must match element counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(src.Data) != len(t.Data) {
		panic("tensor: CopyFrom size mismatch")
	}
	copy(t.Data, src.Data)
}

// IsFinite reports whether every element is finite (no NaN/Inf).
func (t *Tensor) IsFinite() bool {
	for _, v := range t.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// String renders a compact description (shape + first few elements).
func (t *Tensor) String() string {
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.Data[:n])
}
