package acache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"pac/internal/tensor"
)

// The wire/disk format for a cache entry:
//
//	uint32 magic "PACC"
//	uint32 tap count
//	per tap: uint32 ndims, ndims × uint32 dims, dims-product × float32
//
// Everything little-endian. The disk store persists these bytes (plus a
// CRC-32 footer) and the manifest checksums them, so one encoding backs
// every integrity check.

const entryMagic = 0x50414343 // "PACC"

// EncodeEntry serializes an entry.
func EncodeEntry(e Entry) []byte {
	var buf bytes.Buffer
	writeU32 := func(v uint32) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	writeU32(entryMagic)
	writeU32(uint32(len(e)))
	for _, t := range e {
		shape := t.Shape()
		writeU32(uint32(len(shape)))
		for _, d := range shape {
			writeU32(uint32(d))
		}
		for _, v := range t.Data {
			writeU32(math.Float32bits(v))
		}
	}
	return buf.Bytes()
}

// DecodeEntry parses a serialized entry.
func DecodeEntry(data []byte) (Entry, error) {
	r := bytes.NewReader(data)
	readU32 := func() (uint32, error) {
		var v uint32
		err := binary.Read(r, binary.LittleEndian, &v)
		return v, err
	}
	magic, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("acache: decode: %w", err)
	}
	if magic != entryMagic {
		return nil, fmt.Errorf("acache: bad magic %#x", magic)
	}
	count, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("acache: decode tap count: %w", err)
	}
	const maxTaps = 1 << 16
	if count > maxTaps {
		return nil, fmt.Errorf("acache: implausible tap count %d", count)
	}
	entry := make(Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		nd, err := readU32()
		if err != nil || nd > 8 {
			return nil, fmt.Errorf("acache: decode dims of tap %d: ndims=%d err=%v", i, nd, err)
		}
		shape := make([]int, nd)
		numel := 1
		for j := range shape {
			d, err := readU32()
			if err != nil {
				return nil, fmt.Errorf("acache: decode dim: %w", err)
			}
			shape[j] = int(d)
			// Bound the product by the bytes left before multiplying: a
			// crafted shape must not overflow numel or size the slice.
			if d != 0 && numel > r.Len()/4/int(d) {
				return nil, fmt.Errorf("acache: tap %d truncated: shape %v exceeds %d bytes left", i, shape[:j+1], r.Len())
			}
			numel *= int(d)
		}
		if int64(numel)*4 > int64(r.Len()) {
			return nil, fmt.Errorf("acache: tap %d truncated: need %d bytes, have %d", i, numel*4, r.Len())
		}
		data := make([]float32, numel)
		for j := range data {
			bits, err := readU32()
			if err != nil {
				return nil, fmt.Errorf("acache: decode payload: %w", err)
			}
			data[j] = math.Float32frombits(bits)
		}
		entry = append(entry, tensor.FromSlice(data, shape...))
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("acache: %d trailing bytes", r.Len())
	}
	return entry, nil
}
