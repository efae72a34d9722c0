package acache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"pac/internal/tensor"
)

// DiskStore persists cache entries as one file per sample under a
// directory — the layout the paper describes for devices whose DRAM is
// too small to hold the cache ("the activation cache is reloaded from
// disk per micro-batch"). Reads decode on demand; only an id→size index
// lives in memory.
//
// Each entry file is the canonical entry encoding followed by a 4-byte
// CRC-32 (IEEE) footer. Get verifies the footer before decoding; an
// entry that fails (torn write, flash bit rot) is dropped from the
// index and deleted, so the caller's miss path recomputes that one
// sample instead of the epoch failing: a file either passes its CRC
// and decodes or is a miss.
type DiskStore struct {
	dir string

	mu    sync.Mutex
	index map[int]int64 // id → payload bytes
	stats Stats
}

// NewDiskStore opens (creating if needed) a disk cache rooted at dir.
// Existing entries from a previous run are re-indexed.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("acache: create dir: %w", err)
	}
	s := &DiskStore{dir: dir, index: map[int]int64{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("acache: scan dir: %w", err)
	}
	for _, de := range entries {
		name := de.Name()
		if !strings.HasSuffix(name, ".pac") {
			continue
		}
		id, err := strconv.Atoi(strings.TrimSuffix(name, ".pac"))
		if err != nil {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		s.index[id] = info.Size()
	}
	return s, nil
}

func (s *DiskStore) path(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%d.pac", id))
}

// Put implements Store.
func (s *DiskStore) Put(id int, taps Entry) error {
	blob := encodeEntry(taps)
	file := binary.LittleEndian.AppendUint32(blob, crc32.ChecksumIEEE(blob))
	tmp := s.path(id) + ".tmp"
	if err := os.WriteFile(tmp, file, 0o644); err != nil {
		return fmt.Errorf("acache: write entry: %w", err)
	}
	if err := os.Rename(tmp, s.path(id)); err != nil {
		return fmt.Errorf("acache: commit entry: %w", err)
	}
	s.mu.Lock()
	s.index[id] = int64(len(file))
	s.stats.Puts++
	mDiskPuts.Inc()
	s.mu.Unlock()
	return nil
}

// Get implements Store. A file that fails its CRC or does not decode
// counts as corrupt: the entry is deleted and reported as a miss, and
// the caller recomputes that sample.
func (s *DiskStore) Get(id int) (Entry, bool) {
	s.mu.Lock()
	_, ok := s.index[id]
	if ok {
		s.stats.Hits++
		mDiskHits.Inc()
	} else {
		s.stats.Misses++
		mDiskMisses.Inc()
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	file, err := os.ReadFile(s.path(id))
	if n := len(file) - 4; err == nil && n >= 0 && crc32.ChecksumIEEE(file[:n]) == tensor.NewReader(file[n:]).U32() {
		if entry, err := decodeEntry(file[:n]); err == nil {
			return entry, true
		}
	}
	s.dropCorrupt(id)
	return nil, false
}

// dropCorrupt removes a damaged entry so subsequent Has/Get report a
// clean miss and the sample is recomputed rather than retried forever.
func (s *DiskStore) dropCorrupt(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[id]; !ok {
		return
	}
	delete(s.index, id)
	s.stats.Hits-- // the optimistic hit above was in fact a miss
	s.stats.Misses++
	s.stats.Corrupt++
	mDiskCorrupt.Inc()
	_ = os.Remove(s.path(id))
}

// Has implements Store.
func (s *DiskStore) Has(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[id]
	return ok
}

// IDs implements Store.
func (s *DiskStore) IDs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.index))
	for id := range s.index {
		out = append(out, id)
	}
	return out
}

// Len implements Store.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes implements Store.
func (s *DiskStore) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, b := range s.index {
		n += b
	}
	return n
}

// Stats implements Store.
func (s *DiskStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Clear implements Store.
func (s *DiskStore) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range s.index {
		if err := os.Remove(s.path(id)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("acache: clear: %w", err)
		}
	}
	s.index = map[int]int64{}
	return nil
}

// Delete removes one entry (no-op when absent).
func (s *DiskStore) Delete(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[id]; ok {
		_ = os.Remove(s.path(id))
		delete(s.index, id)
	}
}
