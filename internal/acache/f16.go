package acache

import (
	"math"
	"sync"

	"pac/internal/tensor"
)

// F16Store stores entries as IEEE 754 half-precision, halving the
// cache footprint and the redistribution traffic at a small precision
// cost. Backbone activations tolerate fp16 well (inference engines
// routinely run transformers at half precision), so the side network
// trains on near-identical inputs; the ablation bench quantifies the
// error.
type F16Store struct {
	mu      sync.RWMutex
	entries map[int]f16Entry
	bytes   int64
	stats   Stats
}

type f16Entry struct {
	shapes [][]int
	data   [][]uint16
}

// NewF16Store returns an empty half-precision cache.
func NewF16Store() *F16Store {
	return &F16Store{entries: map[int]f16Entry{}}
}

// float32ToF16 converts with round-to-nearest-even, clamping overflow
// to ±Inf.
func float32ToF16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xff) - 127 + 15
	mant := bits & 0x7fffff
	switch {
	case exp >= 0x1f: // overflow or inf/nan
		if bits&0x7fffffff > 0x7f800000 { // NaN
			return sign | 0x7e00
		}
		return sign | 0x7c00
	case exp <= 0: // subnormal or underflow
		if exp < -10 {
			return sign
		}
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(mant >> shift)
		// round to nearest
		if mant>>(shift-1)&1 == 1 {
			half++
		}
		return sign | half
	default:
		half := sign | uint16(exp)<<10 | uint16(mant>>13)
		if mant&0x1000 != 0 { // round bit
			half++
		}
		return half
	}
}

// f16ToFloat32 converts half-precision back to float32.
func f16ToFloat32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1f)
	mant := uint32(h & 0x3ff)
	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign)
		}
		// subnormal: normalize
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3ff
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1f:
		return math.Float32frombits(sign | 0x7f800000 | mant<<13)
	default:
		return math.Float32frombits(sign | (exp-15+127)<<23 | mant<<13)
	}
}

// Put implements Store.
func (s *F16Store) Put(id int, taps Entry) error {
	e := f16Entry{shapes: make([][]int, len(taps)), data: make([][]uint16, len(taps))}
	var bytes int64
	for i, t := range taps {
		e.shapes[i] = append([]int(nil), t.Shape()...)
		d := make([]uint16, t.Numel())
		for j, v := range t.Data {
			d[j] = float32ToF16(v)
		}
		e.data[i] = d
		bytes += int64(len(d)) * 2
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[id]; ok {
		s.bytes -= f16Bytes(old)
	}
	s.entries[id] = e
	s.bytes += bytes
	s.stats.Puts++
	return nil
}

func f16Bytes(e f16Entry) int64 {
	var n int64
	for _, d := range e.data {
		n += int64(len(d)) * 2
	}
	return n
}

// Get implements Store, decoding back to float32 tensors.
func (s *F16Store) Get(id int) (Entry, bool) {
	s.mu.Lock()
	e, ok := s.entries[id]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	out := make(Entry, len(e.data))
	for i, d := range e.data {
		vals := make([]float32, len(d))
		for j, h := range d {
			vals[j] = f16ToFloat32(h)
		}
		out[i] = tensor.FromSlice(vals, e.shapes[i]...)
	}
	return out, true
}

// Has implements Store.
func (s *F16Store) Has(id int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.entries[id]
	return ok
}

// IDs implements Store.
func (s *F16Store) IDs() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, len(s.entries))
	for id := range s.entries {
		out = append(out, id)
	}
	return out
}

// Len implements Store.
func (s *F16Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Bytes implements Store.
func (s *F16Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Stats implements Store.
func (s *F16Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// Clear implements Store.
func (s *F16Store) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = map[int]f16Entry{}
	s.bytes = 0
	return nil
}

// Delete removes one entry (no-op when absent).
func (s *F16Store) Delete(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[id]; ok {
		s.bytes -= f16Bytes(old)
		delete(s.entries, id)
	}
}
