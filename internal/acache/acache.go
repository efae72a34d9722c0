// Package acache implements the PAC activation cache (paper §4.2): the
// per-sample backbone tap activations recorded during the first
// fine-tuning epoch and replayed in later epochs so the frozen LLM
// backbone never runs again. It provides a concurrency-safe in-memory
// store, a disk-backed store for edge devices whose DRAM cannot hold the
// cache (the paper reloads per micro-batch from flash), and the entry
// encoding the disk store persists and the manifest checksums.
package acache

import (
	"sync"

	"pac/internal/memledger"
	"pac/internal/tensor"
)

// memAcct mirrors the in-memory cache footprint into the process
// memory ledger: Put reserves the new entry and releases any replaced
// one, Delete/Clear/eviction release. Disk-backed stores do not
// account here — their payload lives on flash, not in RAM.
var memAcct = memledger.Default().Account("acache")

// Entry is one sample's cached taps: the backbone activation b_i at
// every transformer layer, encoder layers first.
type Entry []*tensor.Tensor

// size returns the storage footprint of the entry in bytes (float32
// payload only; framing is negligible).
func (e Entry) size() int64 {
	var n int64
	for _, t := range e {
		n += int64(t.Numel()) * 4
	}
	return n
}

// Clone deep-copies the entry.
func (e Entry) Clone() Entry {
	out := make(Entry, len(e))
	for i, t := range e {
		out[i] = t.Clone()
	}
	return out
}

// Stats counts cache traffic. Corrupt counts entries that failed
// integrity verification on read and were dropped for recomputation
// (disk stores; a torn write or flash bit rot must cost one sample's
// recompute, never the epoch).
type Stats struct {
	Hits, Misses, Puts, Corrupt int64
}

// Store is an activation cache backend.
type Store interface {
	// Put records the taps for a sample id, replacing any previous entry.
	Put(id int, taps Entry) error
	// Get returns the taps for a sample id.
	Get(id int) (Entry, bool)
	// Has reports whether the id is cached without counting a hit/miss.
	Has(id int) bool
	// IDs returns all cached sample ids (unordered).
	IDs() []int
	// Len returns the number of cached samples.
	Len() int
	// Bytes returns the total cached payload size.
	Bytes() int64
	// Stats returns traffic counters.
	Stats() Stats
	// Clear drops every entry (paper: the cache is deleted once
	// fine-tuning finishes).
	Clear() error
}

// MemoryStore keeps the cache in RAM.
type MemoryStore struct {
	mu      sync.RWMutex
	entries map[int]Entry
	bytes   int64
	stats   Stats
}

// NewMemoryStore returns an empty in-memory cache.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{entries: map[int]Entry{}}
}

// Put implements Store.
func (s *MemoryStore) Put(id int, taps Entry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[id]; ok {
		ob := old.size()
		s.bytes -= ob
		memAcct.Release(ob)
	}
	s.entries[id] = taps
	nb := taps.size()
	s.bytes += nb
	memAcct.Reserve(nb)
	s.stats.Puts++
	mMemPuts.Inc()
	return nil
}

// Get implements Store.
func (s *MemoryStore) Get(id int) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[id]
	if ok {
		s.stats.Hits++
		mMemHits.Inc()
	} else {
		s.stats.Misses++
		mMemMisses.Inc()
	}
	return e, ok
}

// Has implements Store.
func (s *MemoryStore) Has(id int) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.entries[id]
	return ok
}

// IDs implements Store.
func (s *MemoryStore) IDs() []int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]int, 0, len(s.entries))
	for id := range s.entries {
		out = append(out, id)
	}
	return out
}

// Len implements Store.
func (s *MemoryStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Bytes implements Store.
func (s *MemoryStore) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Stats implements Store.
func (s *MemoryStore) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// Clear implements Store.
func (s *MemoryStore) Clear() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	memAcct.Release(s.bytes)
	s.entries = map[int]Entry{}
	s.bytes = 0
	return nil
}

// Delete removes one entry (no-op when absent).
func (s *MemoryStore) Delete(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[id]; ok {
		ob := old.size()
		s.bytes -= ob
		memAcct.Release(ob)
		delete(s.entries, id)
	}
}
