package acache

import (
	"os"
	"path/filepath"
	"testing"

	"pac/internal/tensor"
)

// testEntry builds a deterministic two-tap entry whose values vary by id.
func testEntry(id int) Entry {
	mk := func(base float32) *tensor.Tensor {
		return tensor.FromSlice([]float32{base, base + 1, base + 2}, 1, 3)
	}
	return Entry{mk(float32(id)), mk(float32(id) * 10)}
}

func fillStore(t *testing.T, s Store, m *Manifest, n int) []int {
	t.Helper()
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		ids[i] = i
		if err := s.Put(i, testEntry(i)); err != nil {
			t.Fatal(err)
		}
		if m != nil {
			m.Observe(i, testEntry(i))
		}
	}
	return ids
}

func TestManifestSumsRoundTrip(t *testing.T) {
	m := NewManifest(2)
	for i := 0; i < 5; i++ {
		m.Observe(i, testEntry(i))
	}
	if len(m.Sums()) != 5 || m.Taps() != 2 {
		t.Fatalf("len %d taps %d", len(m.Sums()), m.Taps())
	}
	sum3, ok := m.Sum(3)
	if !ok || sum3 != EntrySum(testEntry(3)) {
		t.Fatal("recorded sum mismatch")
	}
	if _, ok := m.Sum(99); ok {
		t.Fatal("phantom sum")
	}

	clone := ManifestFromSums(m.Taps(), m.Sums())
	if len(clone.Sums()) != 5 {
		t.Fatalf("clone len %d", len(clone.Sums()))
	}
	for i := 0; i < 5; i++ {
		a, _ := m.Sum(i)
		b, _ := clone.Sum(i)
		if a != b {
			t.Fatalf("sum %d diverged", i)
		}
	}
}

func TestManifestShards(t *testing.T) {
	m := NewManifest(2)
	for i := 0; i < 7; i++ {
		m.Observe(i, testEntry(i))
	}
	shards := m.Shards(3)
	if len(shards) != 3 {
		t.Fatalf("%d shards", len(shards))
	}
	seen := map[int]bool{}
	for _, sm := range shards {
		if len(sm.IDs) != len(sm.Sums) {
			t.Fatal("ids/sums misaligned")
		}
		for i, id := range sm.IDs {
			if seen[id] {
				t.Fatalf("id %d in two shards", id)
			}
			seen[id] = true
			if id < sm.MinID || id > sm.MaxID {
				t.Fatalf("id %d outside range [%d,%d]", id, sm.MinID, sm.MaxID)
			}
			if want, _ := m.Sum(id); sm.Sums[i] != want {
				t.Fatalf("shard sum for %d wrong", id)
			}
		}
	}
	if len(seen) != 7 {
		t.Fatalf("shards cover %d ids, want 7", len(seen))
	}
}

// TestSalvageRecomputesOnlyDamage is the core salvage property: after a
// partial loss, intact entries are kept and only the lost or corrupt
// samples go through the recompute callback.
func TestSalvageRecomputesOnlyDamage(t *testing.T) {
	s := NewMemoryStore()
	m := NewManifest(2)
	ids := fillStore(t, s, m, 10)

	// Sample 2: silently corrupted (entry replaced, manifest not told —
	// exactly what a buggy writer or DRAM bit flip produces).
	if err := s.Put(2, testEntry(777)); err != nil {
		t.Fatal(err)
	}
	// Samples 5, 6: lost with their device's shard.
	s.Delete(5)
	s.Delete(6)

	var recomputed []int
	rep, err := Salvage(s, ids, m, func(id int) (Entry, error) {
		recomputed = append(recomputed, id)
		return testEntry(id), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified != 7 || rep.Corrupt != 1 || rep.Missing != 2 || rep.Recomputed != 3 {
		t.Fatalf("report %+v", rep)
	}
	if len(recomputed) != 3 {
		t.Fatalf("recompute called for %v", recomputed)
	}
	// Full coverage restored, every entry matching its manifest sum.
	for _, id := range ids {
		e, ok := s.Get(id)
		if !ok {
			t.Fatalf("sample %d missing after salvage", id)
		}
		if want, _ := m.Sum(id); EntrySum(e) != want {
			t.Fatalf("sample %d sum wrong after salvage", id)
		}
	}
}

func TestSalvageNilRecomputeDropsOnly(t *testing.T) {
	s := NewMemoryStore()
	m := NewManifest(2)
	ids := fillStore(t, s, m, 4)
	if err := s.Put(1, testEntry(999)); err != nil {
		t.Fatal(err)
	}
	rep, err := Salvage(s, ids, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified != 3 || rep.Corrupt != 1 || rep.Recomputed != 0 {
		t.Fatalf("report %+v", rep)
	}
	if s.Has(1) {
		t.Fatal("corrupt entry not dropped")
	}
}

// TestDiskStoreTornWrite covers the per-entry CRC footer: a truncated
// or bit-flipped entry file must read as a clean miss (dropped, counted
// corrupt) so the trainer recomputes one sample instead of crashing or
// training on garbage.
func TestDiskStoreTornWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put(i, testEntry(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Entry 0: torn write (file truncated mid-payload).
	p0 := filepath.Join(dir, "0.pac")
	blob, err := os.ReadFile(p0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p0, blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	// Entry 1: single bit flip in the payload.
	p1 := filepath.Join(dir, "1.pac")
	blob, err = os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/3] ^= 0x01
	if err := os.WriteFile(p1, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	// Reopen (a process restart re-indexes the directory).
	s, err = NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(0); ok {
		t.Fatal("torn entry served")
	}
	if _, ok := s.Get(1); ok {
		t.Fatal("bit-flipped entry served")
	}
	if e, ok := s.Get(2); !ok || EntrySum(e) != EntrySum(testEntry(2)) {
		t.Fatal("intact entry lost")
	}
	st := s.Stats()
	if st.Corrupt != 2 {
		t.Fatalf("corrupt count %d, want 2", st.Corrupt)
	}
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("hits %d misses %d, want 1/2 (corrupt reads are misses)", st.Hits, st.Misses)
	}
	// Dropped for good: the damaged files are gone and Has reports a
	// clean miss, so the caller's recompute path repopulates.
	if s.Has(0) || s.Has(1) {
		t.Fatal("corrupt entries still indexed")
	}

	// Salvage restores coverage, recomputing exactly the damaged two.
	rep, err := Salvage(s, []int{0, 1, 2}, nil, func(id int) (Entry, error) {
		return testEntry(id), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified != 1 || rep.Missing != 2 || rep.Recomputed != 2 {
		t.Fatalf("report %+v", rep)
	}
	for i := 0; i < 3; i++ {
		if e, ok := s.Get(i); !ok || EntrySum(e) != EntrySum(testEntry(i)) {
			t.Fatalf("sample %d wrong after salvage", i)
		}
	}
}

// TestDiskStoreLegacyEntry: files written before the CRC footer existed
// (raw entry encoding) must still load.
func TestDiskStoreLegacyEntry(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "7.pac"), EncodeEntry(testEntry(7)), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := s.Get(7)
	if !ok {
		t.Fatal("legacy entry rejected")
	}
	if EntrySum(e) != EntrySum(testEntry(7)) {
		t.Fatal("legacy entry decoded wrong")
	}
}

func TestBuildManifestSkipsUnreadable(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, nil, 4)
	// Damage entry 2 on disk.
	p := filepath.Join(dir, "2.pac")
	if err := os.WriteFile(p, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	m := BuildManifest(s, 2)
	if len(m.Sums()) != 3 {
		t.Fatalf("manifest len %d, want 3 (corrupt entry skipped)", len(m.Sums()))
	}
	if _, ok := m.Sum(2); ok {
		t.Fatal("corrupt entry has a sum")
	}
}
