package acache

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"

	"pac/internal/tensor"
)

func sampleEntry(seed int64) Entry {
	g := tensor.NewRNG(seed)
	return Entry{g.Randn(1, 2, 4, 8), g.Randn(1, 2, 1, 8)}
}

func entriesEqual(a, b Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !tensor.SameShape(a[i], b[i]) {
			return false
		}
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}

func testStoreBasics(t *testing.T, s Store) {
	t.Helper()
	e := sampleEntry(1)
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatal("store not empty")
	}
	if _, ok := s.Get(7); ok {
		t.Fatal("phantom entry")
	}
	if err := s.Put(7, e); err != nil {
		t.Fatal(err)
	}
	if !s.Has(7) || s.Len() != 1 {
		t.Fatal("Put not visible")
	}
	got, ok := s.Get(7)
	if !ok || !entriesEqual(got, e) {
		t.Fatal("Get returned wrong entry")
	}
	if s.Bytes() <= 0 {
		t.Fatal("Bytes not accounted")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Overwrite keeps Len stable.
	if err := s.Put(7, sampleEntry(2)); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatal("overwrite duplicated entry")
	}
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Has(7) {
		t.Fatal("Clear incomplete")
	}
}

func TestMemoryStoreBasics(t *testing.T) { testStoreBasics(t, NewMemoryStore()) }

func TestDiskStoreBasics(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStoreBasics(t, s)
}

func TestDiskStoreReopenRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := sampleEntry(3)
	if err := s1.Put(42, e); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(42)
	if !ok || !entriesEqual(got, e) {
		t.Fatal("reopened store lost entry")
	}
	if s2.Bytes() != s1.Bytes() {
		t.Fatal("byte accounting differs after reopen")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := sampleEntry(4)
	got, err := decodeEntry(encodeEntry(e))
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(got, e) {
		t.Fatal("roundtrip mismatch")
	}
}

// overflowEntry is a 20-byte encoding — magic, 1 tap, ndims 2, dims
// 0xFFFFFFFF × 0xFFFFFFFF — whose element count overflows int.
var overflowEntry = []byte{
	0x43, 0x43, 0x41, 0x50,
	1, 0, 0, 0,
	2, 0, 0, 0,
	0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff,
}

// garbageEntries are encodings decodeEntry must reject.
func garbageEntries() [][]byte {
	return [][]byte{
		nil,
		{1, 2, 3},
		encodeEntry(sampleEntry(5))[:10], // truncated
		append(encodeEntry(sampleEntry(5)), 0xde, 0xad),  // trailing
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},             // bad magic
		{0x43, 0x43, 0x41, 0x50, 0xff, 0xff, 0xff, 0xff}, // huge tap count
		overflowEntry, // dims whose product overflows int
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for i, c := range garbageEntries() {
		if _, err := decodeEntry(c); err == nil {
			t.Fatalf("case %d: garbage decoded without error", i)
		}
	}
}

// FuzzDecodeEntry: decoding never panics, and whatever decodes is the
// canonical encoding of its result.
func FuzzDecodeEntry(f *testing.F) {
	for _, c := range append(garbageEntries(), encodeEntry(sampleEntry(5))) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := decodeEntry(b)
		if err != nil {
			return
		}
		if got := encodeEntry(e); !bytes.Equal(got, b) {
			t.Fatalf("decode/encode of %d bytes gave %d different bytes", len(b), len(got))
		}
	})
}

func TestPropCodecRoundTrip(t *testing.T) {
	f := func(seed int64, taps, d1, d2 uint8) bool {
		g := tensor.NewRNG(seed)
		n := int(taps%4) + 1
		e := make(Entry, n)
		for i := range e {
			e[i] = g.Randn(1, int(d1%5)+1, int(d2%5)+1)
		}
		got, err := decodeEntry(encodeEntry(e))
		return err == nil && entriesEqual(got, e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryStoreConcurrentAccess(t *testing.T) {
	s := NewMemoryStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := w*100 + i
				_ = s.Put(id, sampleEntry(int64(id)))
				if _, ok := s.Get(id); !ok {
					t.Errorf("lost own write %d", id)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 400 {
		t.Fatalf("Len = %d want 400", s.Len())
	}
}

func TestEntryBytesAndClone(t *testing.T) {
	e := sampleEntry(6)
	want := int64((2*4*8 + 2*1*8) * 4)
	if e.size() != want {
		t.Fatalf("size = %d want %d", e.size(), want)
	}
	c := e.Clone()
	c[0].Data[0] = 999
	if e[0].Data[0] == 999 {
		t.Fatal("Clone aliased data")
	}
}
