package acache

import (
	"encoding/binary"
	"hash/crc32"
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
	sum3, ok := m.lookup(3)
	if !ok || sum3 != entrySum(testEntry(3)) {
		t.Fatal("recorded sum mismatch")
	}
	if _, ok := m.lookup(99); ok {
		t.Fatal("phantom sum")
	}

	clone := ManifestFromSums(m.Taps(), m.Sums())
	if len(clone.Sums()) != 5 {
		t.Fatalf("clone len %d", len(clone.Sums()))
	}
	for i := 0; i < 5; i++ {
		a, _ := m.lookup(i)
		b, _ := clone.lookup(i)
		if a != b {
			t.Fatalf("sum %d diverged", i)
		}
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
		if want, _ := m.lookup(id); entrySum(e) != want {
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

// TestDiskStoreLegacyEntry: a footer-less file (a valid encoding with
// no CRC) is not served. It is a counted-corrupt miss, its file is
// deleted, and a fresh Put of the same sample reads back.
func TestDiskStoreLegacyEntry(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "7.pac")
	if err := os.WriteFile(p, encodeEntry(testEntry(7)), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(7); ok {
		t.Fatal("footer-less entry served")
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v, want 1 corrupt miss", st)
	}
	if _, err := os.Stat(p); !os.IsNotExist(err) {
		t.Fatalf("footer-less file not deleted: %v", err)
	}
	if err := s.Put(7, testEntry(7)); err != nil {
		t.Fatal(err)
	}
	if e, ok := s.Get(7); !ok || entrySum(e) != entrySum(testEntry(7)) {
		t.Fatal("re-put entry lost")
	}
}

// TestDiskStoreTornWrite covers the per-entry CRC footer: a damaged
// entry file must read as a clean miss (dropped, counted corrupt) so
// the trainer recomputes one sample instead of crashing or training on
// garbage. A file reaches the decoder only through its CRC, and the
// decoder rejects what a valid CRC cannot vouch for.
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
	// Entry 3: a valid encoding with no CRC footer.
	if err := os.WriteFile(filepath.Join(dir, "3.pac"), encodeEntry(testEntry(3)), 0o644); err != nil {
		t.Fatal(err)
	}
	// Entry 4: a correct CRC over a shape whose element count overflows.
	crafted := binary.LittleEndian.AppendUint32(append([]byte(nil), overflowEntry...), crc32.ChecksumIEEE(overflowEntry))
	if err := os.WriteFile(filepath.Join(dir, "4.pac"), crafted, 0o644); err != nil {
		t.Fatal(err)
	}
	damaged := []int{0, 1, 3, 4}
	all := []int{0, 1, 2, 3, 4}

	// Reopen (a process restart re-indexes the directory).
	s, err = NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range damaged {
		if _, ok := s.Get(id); ok {
			t.Fatalf("damaged entry %d served", id)
		}
	}
	if e, ok := s.Get(2); !ok || entrySum(e) != entrySum(testEntry(2)) {
		t.Fatal("intact entry lost")
	}
	st := s.Stats()
	if st.Corrupt != 4 {
		t.Fatalf("corrupt count %d, want 4", st.Corrupt)
	}
	if st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("hits %d misses %d, want 1/4 (corrupt reads are misses)", st.Hits, st.Misses)
	}
	// Dropped for good: the damaged files are gone and Has reports a
	// clean miss, so the caller's recompute path repopulates.
	for _, id := range damaged {
		if s.Has(id) {
			t.Fatalf("corrupt entry %d still indexed", id)
		}
	}

	// Salvage restores coverage, recomputing exactly the damaged four.
	rep, err := Salvage(s, all, nil, func(id int) (Entry, error) {
		return testEntry(id), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verified != 1 || rep.Missing != 4 || rep.Recomputed != 4 {
		t.Fatalf("report %+v", rep)
	}
	for _, id := range all {
		if e, ok := s.Get(id); !ok || entrySum(e) != entrySum(testEntry(id)) {
			t.Fatalf("sample %d wrong after salvage", id)
		}
	}
}
