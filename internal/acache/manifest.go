package acache

import (
	"fmt"
	"hash/crc32"
	"sync"
)

// Manifest is the integrity ledger of an activation cache: a CRC-32
// per cached sample entry, recorded as entries are committed during
// phase 1. After a device loss or process restart it is the source of
// truth for salvage — surviving entries are verified against it, and
// only samples whose taps are missing or damaged are recomputed
// through the frozen backbone (O(lost shard) instead of replaying the
// whole epoch-1 forward pass).
type Manifest struct {
	mu   sync.Mutex
	taps int
	sums map[int]uint32
}

// NewManifest returns an empty manifest for entries of the given tap
// count.
func NewManifest(taps int) *Manifest {
	return &Manifest{taps: taps, sums: map[int]uint32{}}
}

// entrySum is the checksum recorded per entry: CRC-32 (IEEE) of the
// entry's canonical encoding — the same bytes the disk store persists,
// so one sum serves every store kind.
func entrySum(e Entry) uint32 {
	return crc32.ChecksumIEEE(encodeEntry(e))
}

// Taps returns the per-entry tap count the manifest describes.
func (m *Manifest) Taps() int { return m.taps }

// Observe records (or refreshes) the checksum for one committed entry.
func (m *Manifest) Observe(id int, e Entry) {
	sum := entrySum(e)
	m.mu.Lock()
	m.sums[id] = sum
	m.mu.Unlock()
}

// lookup returns the recorded checksum for a sample id.
func (m *Manifest) lookup(id int) (uint32, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sum, ok := m.sums[id]
	return sum, ok
}

// Sums returns a copy of the id → checksum map (snapshot encoding).
func (m *Manifest) Sums() map[int]uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]uint32, len(m.sums))
	for id, s := range m.sums {
		out[id] = s
	}
	return out
}

// ManifestFromSums rebuilds a manifest from a snapshot's persisted
// id → checksum map.
func ManifestFromSums(taps int, sums map[int]uint32) *Manifest {
	m := NewManifest(taps)
	for id, s := range sums {
		m.sums[id] = s
	}
	return m
}

// SalvageReport summarizes one salvage pass.
type SalvageReport struct {
	// Verified entries survived intact (checksum match, or readable
	// with no recorded checksum to compare against).
	Verified int
	// Corrupt entries were present but failed verification; they were
	// dropped and recomputed.
	Corrupt int
	// Missing entries were absent from the store (lost shard).
	Missing int
	// Recomputed counts corrupt+missing entries restored through the
	// recompute callback.
	Recomputed int
}

func (r SalvageReport) String() string {
	return fmt.Sprintf("verified %d, corrupt %d, missing %d, recomputed %d",
		r.Verified, r.Corrupt, r.Missing, r.Recomputed)
}

// Salvage restores store coverage of want after a device loss or
// process restart: every surviving entry is verified (against the
// manifest checksum when one is recorded, else by a successful read —
// the disk store self-verifies per-entry CRCs), corrupt entries are
// dropped, and only the corrupt or missing samples are recomputed via
// the callback — never the intact remainder. A nil recompute verifies
// and drops but restores nothing (the lazy miss path will recompute on
// demand). A nil manifest skips checksum comparison.
func Salvage(s Store, want []int, m *Manifest, recompute func(id int) (Entry, error)) (SalvageReport, error) {
	var rep SalvageReport
	type deleter interface{ Delete(id int) }
	for _, id := range want {
		e, ok := s.Get(id)
		if ok {
			intact := true
			if m != nil {
				if sum, recorded := m.lookup(id); recorded && entrySum(e) != sum {
					intact = false
				}
			}
			if intact {
				rep.Verified++
				continue
			}
			rep.Corrupt++
			if d, can := s.(deleter); can {
				d.Delete(id)
			}
		} else {
			rep.Missing++
		}
		if recompute == nil {
			continue
		}
		fresh, err := recompute(id)
		if err != nil {
			return rep, fmt.Errorf("acache: salvage recompute sample %d: %w", id, err)
		}
		if err := s.Put(id, fresh); err != nil {
			return rep, fmt.Errorf("acache: salvage store sample %d: %w", id, err)
		}
		if m != nil {
			m.Observe(id, fresh)
		}
		rep.Recomputed++
	}
	mSalvageVerified.Add(int64(rep.Verified))
	mSalvageCorrupt.Add(int64(rep.Corrupt))
	mSalvageMissing.Add(int64(rep.Missing))
	mSalvageRecomputed.Add(int64(rep.Recomputed))
	return rep, nil
}
