package acache

import (
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
	got, err := DecodeEntry(EncodeEntry(e))
	if err != nil {
		t.Fatal(err)
	}
	if !entriesEqual(got, e) {
		t.Fatal("roundtrip mismatch")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		EncodeEntry(sampleEntry(5))[:10], // truncated
		append(EncodeEntry(sampleEntry(5)), 0xde, 0xad),  // trailing
		{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},             // bad magic
		{0x43, 0x43, 0x41, 0x50, 0xff, 0xff, 0xff, 0xff}, // huge tap count
	}
	for i, c := range cases {
		if _, err := DecodeEntry(c); err == nil {
			t.Fatalf("case %d: garbage decoded without error", i)
		}
	}
}

func TestPropCodecRoundTrip(t *testing.T) {
	f := func(seed int64, taps, d1, d2 uint8) bool {
		g := tensor.NewRNG(seed)
		n := int(taps%4) + 1
		e := make(Entry, n)
		for i := range e {
			e[i] = g.Randn(1, int(d1%5)+1, int(d2%5)+1)
		}
		got, err := DecodeEntry(EncodeEntry(e))
		return err == nil && entriesEqual(got, e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShardRoundTrip(t *testing.T) {
	src := NewMemoryStore()
	var ids []int
	for i := 0; i < 5; i++ {
		if err := src.Put(i*10, sampleEntry(int64(i))); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, i*10)
	}
	blob, err := EncodeShard(src, ids)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewMemoryStore()
	if err := DecodeShard(dst, blob); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != len(ids) {
		t.Fatalf("decoded store has %d entries, want %d", dst.Len(), len(ids))
	}
	for _, id := range ids {
		a, _ := src.Get(id)
		b, ok := dst.Get(id)
		if !ok || !entriesEqual(a, b) {
			t.Fatalf("shard entry %d mismatch", id)
		}
	}
}

func TestEncodeShardMissingID(t *testing.T) {
	if _, err := EncodeShard(NewMemoryStore(), []int{1}); err == nil {
		t.Fatal("expected error for uncached id")
	}
}

func TestShardIDsBalancedAndComplete(t *testing.T) {
	ids := make([]int, 10)
	for i := range ids {
		ids[i] = i + 100
	}
	shards := ShardIDs(ids, 3)
	if len(shards) != 3 {
		t.Fatal("wrong shard count")
	}
	seen := map[int]bool{}
	for _, sh := range shards {
		if len(sh) < 3 || len(sh) > 4 {
			t.Fatalf("unbalanced shard of %d", len(sh))
		}
		for _, id := range sh {
			if seen[id] {
				t.Fatal("duplicate id across shards")
			}
			seen[id] = true
		}
	}
	if len(seen) != len(ids) {
		t.Fatal("ids lost in sharding")
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
	if e.Bytes() != want {
		t.Fatalf("Bytes = %d want %d", e.Bytes(), want)
	}
	c := e.Clone()
	c[0].Data[0] = 999
	if e[0].Data[0] == 999 {
		t.Fatal("Clone aliased data")
	}
}
