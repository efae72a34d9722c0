package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// The one tensor record codec. A record is
//
//	u32 rank, rank × u32 dims, dims-product × f32 values
//
// little-endian throughout. The activation cache (PACC), the training
// snapshot (PACS), the fp32 adapter checkpoint (PACK) and the pipeline
// frames all write tensors as these bytes, and read them back through
// Reader, which bounds every length by the bytes actually present
// before it allocates: no byte sequence can make a decoder panic or
// allocate more than its input.

// maxRank bounds a record's rank; no tensor here has more than four.
const maxRank = 8

// AppendRecord appends t's record to b.
func AppendRecord(b []byte, t *Tensor) []byte {
	b = slices.Grow(b, 4*(1+len(t.shape)+len(t.Data)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(t.shape)))
	for _, d := range t.shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return AppendF32s(b, t.Data)
}

// AppendF32s appends v as little-endian float32 values.
func AppendF32s(b []byte, v []float32) []byte {
	n := len(b)
	b = slices.Grow(b, 4*len(v))[:n+4*len(v)]
	for i, f := range v {
		binary.LittleEndian.PutUint32(b[n+4*i:], math.Float32bits(f))
	}
	return b
}

// Reader reads little-endian fields and tensor records from a byte
// slice. The first failure sticks: every later read returns a zero
// value, and End reports that first failure. A caller therefore reads
// a whole layout straight through and checks once, at End.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("tensor: "+format, args...)
	}
	r.b = nil
}

// Bytes returns the next n bytes (aliasing the input), or nil when
// fewer than n are left or n is negative.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b) {
		r.fail("truncated: need %d bytes, have %d", n, len(r.b))
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64: its low word, then its high word.
func (r *Reader) U64() uint64 { return uint64(r.U32()) | uint64(r.U32())<<32 }

// Shape reads a record's rank and dims and returns them with their
// product. A rank above 8 fails, and so does any shape whose elements,
// at elemSize bytes each, need more bytes than are left after the
// dims: each dim and the running product are bounded by that count
// before the multiply, so a crafted shape can neither overflow the
// product nor size an allocation. A shape with a zero dim has no
// elements and needs no bytes.
func (r *Reader) Shape(elemSize int) (dims []int, numel int) {
	rank := r.U32()
	if rank > maxRank {
		r.fail("rank %d exceeds %d", rank, maxRank)
	}
	raw := r.Bytes(4 * int(rank))
	if raw == nil {
		return nil, 0
	}
	dims = make([]int, rank)
	for i := range dims {
		dims[i] = int(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	if slices.Contains(dims, 0) {
		return dims, 0
	}
	numel = 1
	for _, d := range dims {
		if d < 0 || numel > len(r.b)/elemSize/d {
			r.fail("shape %v exceeds the %d bytes left", dims, len(r.b))
			return nil, 0
		}
		numel *= d
	}
	return dims, numel
}

// F32s reads n little-endian float32 values.
func (r *Reader) F32s(n int) []float32 {
	if n > len(r.b)/4 {
		r.fail("truncated: need %d values, have %d bytes", n, len(r.b))
	}
	b := r.Bytes(4 * n)
	if b == nil {
		return nil
	}
	v := make([]float32, n)
	for i := range v {
		v[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

// Record reads one tensor record, or returns nil after a failure.
func (r *Reader) Record() *Tensor {
	dims, numel := r.Shape(4)
	v := r.F32s(numel)
	if r.err != nil {
		return nil
	}
	return &Tensor{shape: dims, Data: v}
}

// End reports the first failure, or an error if any bytes are left
// unread.
func (r *Reader) End() error {
	if r.err == nil && len(r.b) != 0 {
		return fmt.Errorf("tensor: %d trailing bytes", len(r.b))
	}
	return r.err
}
