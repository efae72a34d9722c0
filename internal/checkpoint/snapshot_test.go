package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/tensor"
)

func sampleSnapshot() *Snapshot {
	mk := func(vals ...float32) *tensor.Tensor {
		return tensor.FromSlice(vals, len(vals))
	}
	return &Snapshot{
		Fingerprint: Fingerprint(model.Tiny()),
		Task:        "mrpc",
		Seed:        42,
		Epoch:       1,
		Step:        7,
		Stages:      2,
		Lanes:       2,
		Adapters:    []*tensor.Tensor{mk(1, 2, 3), mk(4.5)},
		OptGroups: []OptGroup{
			{Step: 9, Tensors: []*tensor.Tensor{mk(0.1, 0.2, 0.3), mk(0.4)}},
		},
		CacheTaps: 4,
		CacheSums: map[int]uint32{0: 111, 3: 222, 17: 333},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := sampleSnapshot()
	got, err := decodeSnapshot(encodeSnapshot(want))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != want.Fingerprint || got.Task != want.Task ||
		got.Seed != want.Seed || got.Epoch != want.Epoch || got.Step != want.Step ||
		got.Stages != want.Stages || got.Lanes != want.Lanes || got.CacheTaps != want.CacheTaps {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, want)
	}
	if len(got.Adapters) != len(want.Adapters) {
		t.Fatalf("adapter count %d, want %d", len(got.Adapters), len(want.Adapters))
	}
	for i := range want.Adapters {
		for j, v := range want.Adapters[i].Data {
			if got.Adapters[i].Data[j] != v {
				t.Fatalf("adapter %d elem %d mismatch", i, j)
			}
		}
	}
	if len(got.OptGroups) != 1 || got.OptGroups[0].Step != 9 {
		t.Fatalf("optimizer groups: %+v", got.OptGroups)
	}
	for j, v := range want.OptGroups[0].Tensors[0].Data {
		if got.OptGroups[0].Tensors[0].Data[j] != v {
			t.Fatal("optimizer tensor mismatch")
		}
	}
	if len(got.CacheSums) != 3 || got.CacheSums[17] != 333 {
		t.Fatalf("cache sums: %v", got.CacheSums)
	}
}

// TestSnapshotTruncationNeverSilent is the torn-write guarantee: a
// snapshot file cut off at ANY 64-byte boundary must be rejected with
// ErrCorrupt — a partial write can never be loaded as training state.
func TestSnapshotTruncationNeverSilent(t *testing.T) {
	blob := encodeSnapshot(sampleSnapshot())
	for cut := 0; cut < len(blob); cut += 64 {
		_, err := decodeSnapshot(blob[:cut])
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(blob))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

// TestCheckpointTruncationNeverSilent applies the same fuzz to the
// adapter checkpoint (PACK) format through a real saved file.
func TestCheckpointTruncationNeverSilent(t *testing.T) {
	tech, cfg := trainedTechnique(t, peft.ParallelAdapters)
	path := filepath.Join(t.TempDir(), "a.pack")
	if err := Save(path, "x", tech, cfg, 3); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decode(blob); err != nil {
		t.Fatalf("untruncated file rejected: %v", err)
	}
	for cut := 0; cut < len(blob); cut += 64 {
		_, err := decode(blob[:cut])
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes accepted", cut, len(blob))
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v does not wrap ErrCorrupt", cut, err)
		}
	}
}

func TestSnapshotBitFlipDetected(t *testing.T) {
	blob := encodeSnapshot(sampleSnapshot())
	for pos := 0; pos < len(blob); pos += 17 {
		mut := append([]byte(nil), blob...)
		mut[pos] ^= 0x40
		if _, err := decodeSnapshot(mut); err == nil {
			t.Fatalf("bit flip at byte %d undetected", pos)
		}
	}
}

func TestSaveLoadSnapshotAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap-00000000.pacs")
	if err := saveSnapshot(path, sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	got, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Step != 7 {
		t.Fatalf("step %d, want 7", got.Step)
	}
	// No temp-file residue from the atomic write.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// overflowPACS is a snapshot whose sections all pass their CRCs: a
// valid meta section and an adapters section holding one rank-3 tensor
// of shape [2^30, 2^30, 4] and no values. Its element count times four
// wraps to 0, which once let a decoder allocate 2^62 floats and panic.
func overflowPACS() []byte {
	le := binary.LittleEndian
	meta := le.AppendUint64(nil, 1)           // fingerprint
	meta = le.AppendUint64(meta, 2)           // seed
	meta = append(meta, make([]byte, 5*4)...) // epoch, step, stages, lanes, task length
	adapters := le.AppendUint32(nil, 1)       // tensor count
	for _, v := range []uint32{3, 1 << 30, 1 << 30, 4} {
		adapters = le.AppendUint32(adapters, v) // rank, then dims
	}
	b := le.AppendUint32(nil, snapMagic)
	b = le.AppendUint32(b, snapVersion)
	b = le.AppendUint32(b, 2)
	for kind, payload := range [][]byte{meta, adapters} {
		b = le.AppendUint32(b, uint32(secMeta+kind))
		b = le.AppendUint32(b, uint32(len(payload)))
		b = le.AppendUint32(b, crc32.ChecksumIEEE(payload))
		b = append(b, payload...)
	}
	return b
}

// TestLatestFallsBackPastCorrupt is the supervisor's safety net: when
// the newest snapshot is damaged — a torn write, or sections that pass
// their CRCs around an impossible shape — Latest must return the
// previous generation, never the damaged one, and count the skip.
func TestLatestFallsBackPastCorrupt(t *testing.T) {
	newer := sampleSnapshot()
	newer.Step = 8
	whole := encodeSnapshot(newer)
	for name, bad := range map[string][]byte{
		"torn mid-file":       whole[:len(whole)/2],
		"overflowing adapter": overflowPACS(),
	} {
		dir := t.TempDir()
		old := sampleSnapshot()
		old.Step = 3
		if err := saveSnapshot(filepath.Join(dir, fmt.Sprintf(snapPattern, 0)), old); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf(snapPattern, 1)), bad, 0o644); err != nil {
			t.Fatal(err)
		}

		skipped := mSnapCorrupt.Value()
		s, path, err := Latest(dir)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Step != 3 {
			t.Fatalf("%s: Latest returned step %d, want fallback step 3", name, s.Step)
		}
		if !strings.HasSuffix(path, fmt.Sprintf(snapPattern, 0)) {
			t.Fatalf("%s: Latest path %s is not the fallback", name, path)
		}
		if got := mSnapCorrupt.Value() - skipped; got != 1 {
			t.Fatalf("%s: %d corrupt snapshots counted, want 1", name, got)
		}
	}
}

func TestLatestEmptyDir(t *testing.T) {
	if _, _, err := Latest(t.TempDir()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("empty dir: %v, want ErrNotExist", err)
	}
	if _, _, err := Latest(filepath.Join(t.TempDir(), "missing")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing dir: %v, want ErrNotExist", err)
	}
}

func TestSnapshotterRetainsAndResumes(t *testing.T) {
	dir := t.TempDir()
	w, err := NewSnapshotter(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s := sampleSnapshot()
		s.Step = i
		w.Write(s)
		// Drain between writes so every generation lands (coalescing
		// would otherwise skip intermediate ones, which is fine for the
		// trainer but makes retention counting nondeterministic here).
		deadline := time.Now().Add(5 * time.Second)
		for w.Written() <= i {
			if time.Now().After(deadline) {
				t.Fatalf("snapshot %d never persisted", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Written() != 5 {
		t.Fatalf("written %d, want 5", w.Written())
	}
	seqs, err := snapshotSeqs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) > 2 {
		t.Fatalf("retention kept %d generations, want ≤2: %v", len(seqs), seqs)
	}
	s, _, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Step != 4 {
		t.Fatalf("latest step %d, want 4", s.Step)
	}

	// A successor (process restart) resumes numbering after the
	// survivors instead of overwriting them.
	w2, err := NewSnapshotter(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	next := sampleSnapshot()
	next.Step = 9
	w2.Write(next)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	s, _, err = Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Step != 9 {
		t.Fatalf("latest after restart: step %d, want 9", s.Step)
	}
}

// FuzzDecodeSnapshot: decoding never panics, every error but an
// unsupported version wraps ErrCorrupt, and a decoded snapshot
// re-encodes to bytes that decode to the same snapshot. Each input is
// also decoded with its section CRCs recomputed, so mutations reach
// the section decoders.
func FuzzDecodeSnapshot(f *testing.F) {
	whole := encodeSnapshot(sampleSnapshot())
	for _, seed := range [][]byte{whole, whole[:len(whole)/2], overflowPACS(), overflowPACK(), nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, b := range [][]byte{in, resum(in)} {
			s, err := decodeSnapshot(b)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) && !strings.Contains(err.Error(), "unsupported version") {
					t.Fatalf("error %v neither wraps ErrCorrupt nor names the version", err)
				}
				continue
			}
			again := encodeSnapshot(s)
			s2, err := decodeSnapshot(again)
			if err != nil {
				t.Fatalf("re-encoded snapshot does not decode: %v", err)
			}
			// NaN != NaN, so a snapshot holding one is never DeepEqual to
			// itself; its bytes must still be a fixed point.
			if !bytes.Equal(encodeSnapshot(s2), again) || !hasNaN(s) && !reflect.DeepEqual(s, s2) {
				t.Fatalf("decode/encode/decode changed the snapshot:\n%+v\n%+v", s, s2)
			}
		}
	})
}

// resum returns a copy of b with every section CRC it can reach
// rewritten to match its payload.
func resum(b []byte) []byte {
	b = append([]byte(nil), b...)
	le := binary.LittleEndian
	for off := 12; off+12 <= len(b); {
		n := int(le.Uint32(b[off+4:]))
		if n > len(b)-off-12 {
			break
		}
		le.PutUint32(b[off+8:], crc32.ChecksumIEEE(b[off+12:off+12+n]))
		off += 12 + n
	}
	return b
}

func hasNaN(s *Snapshot) bool {
	ts := append([]*tensor.Tensor(nil), s.Adapters...)
	for _, g := range s.OptGroups {
		ts = append(ts, g.Tensors...)
	}
	for _, t := range ts {
		for _, v := range t.Data {
			if v != v {
				return true
			}
		}
	}
	return false
}
