package acache

import (
	"encoding/binary"
	"fmt"

	"pac/internal/tensor"
)

// The wire/disk format for a cache entry:
//
//	uint32 magic "PACC"
//	uint32 tap count
//	per tap: one tensor record (tensor.AppendRecord)
//
// Everything little-endian. The disk store persists these bytes (plus a
// CRC-32 footer) and the manifest checksums them, so one encoding backs
// every integrity check.

const entryMagic = 0x50414343 // "PACC"

// encodeEntry serializes an entry, leaving room for DiskStore's footer.
func encodeEntry(e Entry) []byte {
	n := 8 + 4
	for _, t := range e {
		n += 4 * (1 + t.Dims() + len(t.Data))
	}
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, n), entryMagic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e)))
	for _, t := range e {
		b = tensor.AppendRecord(b, t)
	}
	return b
}

// decodeEntry parses a serialized entry.
func decodeEntry(data []byte) (Entry, error) {
	r := tensor.NewReader(data)
	if magic := r.U32(); magic != entryMagic {
		return nil, fmt.Errorf("acache: bad magic %#x", magic)
	}
	count := r.U32()
	if count > 1<<16 {
		return nil, fmt.Errorf("acache: implausible tap count %d", count)
	}
	entry := Entry{}
	for i := uint32(0); i < count; i++ {
		t := r.Record()
		if t == nil {
			break
		}
		entry = append(entry, t)
	}
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("acache: decode: %w", err)
	}
	return entry, nil
}
