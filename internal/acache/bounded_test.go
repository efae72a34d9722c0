package acache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pac/internal/telemetry"
	"pac/internal/tensor"
)

func fixedEntry(val float32) Entry {
	return Entry{tensor.Full(val, 2, 8)} // 64 bytes
}

func TestBoundedKeepsResidents(t *testing.T) {
	b := NewBounded(NewMemoryStore(), 3*64)
	for id := 0; id < 3; id++ {
		if err := b.Put(id, fixedEntry(float32(id))); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 3 || b.Evicted() != 0 {
		t.Fatalf("len %d evicted %d", b.Len(), b.Evicted())
	}
	// Reading a resident buys it nothing and costs the others nothing:
	// the newcomer is the one turned away.
	if _, ok := b.Get(0); !ok {
		t.Fatal("entry 0 lost")
	}
	if err := b.Put(3, fixedEntry(3)); err != nil {
		t.Fatal(err)
	}
	if b.Has(3) {
		t.Fatal("newcomer 3 displaced a resident")
	}
	for _, id := range []int{0, 1, 2} {
		if !b.Has(id) {
			t.Fatalf("resident %d displaced by a newcomer", id)
		}
	}
	if b.Evicted() != 1 {
		t.Fatalf("Evicted = %d", b.Evicted())
	}
	// Overwriting a resident is not a newcomer.
	if err := b.Put(1, fixedEntry(9)); err != nil {
		t.Fatal(err)
	}
	if e, ok := b.Get(1); !ok || e[0].Data[0] != 9 {
		t.Fatal("overwrite of resident 1 turned away")
	}
	if b.Len() != 3 || b.Evicted() != 1 {
		t.Fatalf("after overwrite: len %d evicted %d", b.Len(), b.Evicted())
	}
}

// TestBoundedHitsEqualResidents is the policy's whole argument as a
// property: training reads every sample once per epoch in a fresh
// random order, so an epoch's hits can be at most the entries resident
// when it began, and keep-residents reaches that. (LRU at a 50 % share
// reads ≈ 0.16.) Every miss is offered back, as core's miss path does.
func TestBoundedHitsEqualResidents(t *testing.T) {
	reg := telemetry.Default()
	rejects := reg.Counter("pac_cache_ops_total", "store", "bounded", "op", "reject")
	sheds := reg.Counter("pac_cache_ops_total", "store", "bounded", "op", "shed")
	for _, tc := range []struct {
		n, sharePct int
		seed        int64
	}{
		{16, 25, 1}, {16, 50, 2}, {16, 75, 3},
		{192, 25, 4}, {192, 50, 5}, {192, 75, 6},
		{37, 50, 7},
	} {
		capacity := tc.n * tc.sharePct / 100
		// Half an entry of slack: a bound that is not a multiple of the
		// entry size must not admit one entry more.
		b := NewBounded(NewMemoryStore(), int64(capacity)*64+32)
		rej0, shed0 := rejects.Value(), sheds.Value()
		rng := rand.New(rand.NewSource(tc.seed))
		var turnedAway int64
		offer := func(id int) {
			if err := b.Put(id, fixedEntry(float32(id))); err != nil {
				t.Fatal(err)
			}
			if !b.Has(id) {
				turnedAway++
			}
			if b.Len() > capacity {
				t.Fatalf("%+v: len %d exceeds capacity %d", tc, b.Len(), capacity)
			}
		}
		for _, id := range rng.Perm(tc.n) { // the hybrid epoch fills the cache
			offer(id)
		}
		for epoch := 1; epoch <= 6; epoch++ {
			residents := b.Len()
			hits := 0
			for _, id := range rng.Perm(tc.n) {
				if _, ok := b.Get(id); ok {
					hits++
				} else {
					offer(id)
				}
			}
			if residents != capacity || hits != residents {
				t.Fatalf("%+v epoch %d: %d hits, %d residents, capacity %d", tc, epoch, hits, residents, capacity)
			}
		}
		shedEntries, _ := b.Shed(int64(capacity/2) * 64)
		if want := capacity - capacity/2; shedEntries != want {
			t.Fatalf("%+v: shed %d entries, want %d", tc, shedEntries, want)
		}
		if got, want := b.Evicted(), turnedAway+int64(shedEntries); got != want {
			t.Fatalf("%+v: Evicted %d, want %d turned away + %d shed", tc, got, turnedAway, shedEntries)
		}
		if d := rejects.Value() - rej0; d != turnedAway {
			t.Fatalf("%+v: reject counter moved %d, %d turned away", tc, d, turnedAway)
		}
		if d := sheds.Value() - shed0; d != int64(shedEntries) {
			t.Fatalf("%+v: shed counter moved %d, %d shed", tc, d, shedEntries)
		}
	}
}

// TestBoundedShedReliefSticks: after a pressure Shed the next epoch's
// recomputed samples must not be admitted straight back, or the
// watermark trips again and the same samples are recomputed every
// cycle (pac-train wraps its cache in a MaxInt64 bound).
func TestBoundedShedReliefSticks(t *testing.T) {
	const n = 20
	b := NewBounded(NewMemoryStore(), math.MaxInt64)
	for id := 0; id < n; id++ {
		_ = b.Put(id, fixedEntry(float32(id)))
	}
	half := b.Bytes() / 2
	b.Shed(half)
	residents := b.Len()
	if residents != n/2 {
		t.Fatalf("%d residents after shedding to half", residents)
	}
	hits := 0
	for id := 0; id < n; id++ {
		if _, ok := b.Get(id); ok {
			hits++
		} else {
			_ = b.Put(id, fixedEntry(float32(id)))
		}
		if b.Bytes() > half {
			t.Fatalf("bytes %d back above the shed target %d after sample %d", b.Bytes(), half, id)
		}
	}
	if hits != residents {
		t.Fatalf("%d hits with %d residents", hits, residents)
	}
	// Clear is a new start: the configured bound is back.
	if err := b.Clear(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < n; id++ {
		_ = b.Put(id, fixedEntry(float32(id)))
	}
	if b.Len() != n {
		t.Fatalf("after Clear the cache admitted %d of %d", b.Len(), n)
	}
}

func TestBoundedRespectsByteBudget(t *testing.T) {
	budget := int64(5 * 64)
	b := NewBounded(NewMemoryStore(), budget)
	for id := 0; id < 50; id++ {
		if err := b.Put(id, fixedEntry(1)); err != nil {
			t.Fatal(err)
		}
		if b.Bytes() > budget {
			t.Fatalf("bytes %d exceed budget %d", b.Bytes(), budget)
		}
	}
	if b.Len() != 5 {
		t.Fatalf("len %d want 5", b.Len())
	}
}

func TestBoundedOversizedEntryRejected(t *testing.T) {
	b := NewBounded(NewMemoryStore(), 10)
	if err := b.Put(1, fixedEntry(1)); err != nil {
		t.Fatal(err)
	}
	if b.Has(1) {
		t.Fatal("oversized entry stored")
	}
}

func TestBoundedClear(t *testing.T) {
	b := NewBounded(NewMemoryStore(), 1000)
	_ = b.Put(1, fixedEntry(1))
	if err := b.Clear(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 || b.Bytes() != 0 {
		t.Fatal("clear incomplete")
	}
	// A fresh Put works.
	_ = b.Put(2, fixedEntry(2))
	if !b.Has(2) {
		t.Fatal("put after clear failed")
	}
}

func TestBoundedOverDisk(t *testing.T) {
	inner, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBounded(inner, 3*entryDiskBytes(t, inner))
	for id := 0; id < 6; id++ {
		if err := b.Put(id, fixedEntry(float32(id))); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() > 3 {
		t.Fatalf("disk-bounded len %d", b.Len())
	}
	if b.Evicted() == 0 {
		t.Fatal("no evictions on disk store")
	}
}

// entryDiskBytes measures the on-disk size of one encoded entry.
func entryDiskBytes(t *testing.T, s *DiskStore) int64 {
	t.Helper()
	if err := s.Put(9999, fixedEntry(0)); err != nil {
		t.Fatal(err)
	}
	n := s.Bytes()
	s.Delete(9999)
	return n
}

func TestF16RoundTripPrecision(t *testing.T) {
	g := tensor.NewRNG(1)
	vals := g.Randn(1, 1000).Data
	var maxRel float64
	for _, v := range vals {
		back := f16ToFloat32(float32ToF16(v))
		rel := math.Abs(float64(back-v)) / math.Max(1e-6, math.Abs(float64(v)))
		if rel > maxRel {
			maxRel = rel
		}
	}
	// Half precision has ~3 decimal digits: relative error < 0.1%.
	if maxRel > 1e-3 {
		t.Fatalf("max relative error %v", maxRel)
	}
}

func TestF16SpecialValues(t *testing.T) {
	cases := []float32{0, -0, 1, -1, 0.5, 65504 /* max half */, 1e-8 /* subnormal half range */}
	for _, v := range cases {
		back := f16ToFloat32(float32ToF16(v))
		if math.Abs(float64(back-v)) > math.Abs(float64(v))*1e-3+1e-7 {
			t.Fatalf("value %v roundtripped to %v", v, back)
		}
	}
	// Overflow clamps to +Inf.
	if !math.IsInf(float64(f16ToFloat32(float32ToF16(1e10))), 1) {
		t.Fatal("overflow should produce +Inf")
	}
	// NaN stays NaN.
	if !math.IsNaN(float64(f16ToFloat32(float32ToF16(float32(math.NaN()))))) {
		t.Fatal("NaN lost")
	}
}

func TestPropF16MonotoneOrder(t *testing.T) {
	// Order preservation for representable finite values.
	f := func(aRaw, bRaw int16) bool {
		a := float32(aRaw) / 64
		b := float32(bRaw) / 64
		ha := f16ToFloat32(float32ToF16(a))
		hb := f16ToFloat32(float32ToF16(b))
		if a < b {
			return ha <= hb
		}
		if a > b {
			return ha >= hb
		}
		return ha == hb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestF16StoreBasicsAndHalfFootprint(t *testing.T) {
	// Lifecycle (exact-equality basics don't apply to a lossy store).
	s := NewF16Store()
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatal("not empty")
	}
	_ = s.Put(7, sampleEntry(1))
	if !s.Has(7) || s.Len() != 1 || len(s.IDs()) != 1 {
		t.Fatal("put not visible")
	}
	_ = s.Put(7, sampleEntry(2))
	if s.Len() != 1 {
		t.Fatal("overwrite duplicated")
	}
	s.Delete(7)
	if s.Has(7) || s.Bytes() != 0 {
		t.Fatal("delete incomplete")
	}
	_ = s.Put(8, sampleEntry(3))
	if err := s.Clear(); err != nil || s.Len() != 0 {
		t.Fatal("clear incomplete")
	}
	if st := s.Stats(); st.Puts != 3 {
		t.Fatalf("stats %+v", st)
	}

	s2 := NewF16Store()
	m := NewMemoryStore()
	e := sampleEntry(1)
	_ = s2.Put(1, e)
	_ = m.Put(1, e)
	if s2.Bytes()*2 != m.Bytes() {
		t.Fatalf("f16 bytes %d vs f32 %d", s2.Bytes(), m.Bytes())
	}
	got, ok := s2.Get(1)
	if !ok {
		t.Fatal("lost entry")
	}
	for i := range e {
		for j := range e[i].Data {
			if math.Abs(float64(got[i].Data[j]-e[i].Data[j])) > 1e-2 {
				t.Fatalf("tap %d elem %d: %v vs %v", i, j, got[i].Data[j], e[i].Data[j])
			}
		}
	}
}

func TestBoundedOverF16(t *testing.T) {
	// Composition: half-precision + capacity bound.
	b := NewBounded(NewF16Store(), 3*32) // f16 entries are 32 bytes
	for id := 0; id < 6; id++ {
		_ = b.Put(id, fixedEntry(float32(id)))
	}
	if b.Len() != 3 {
		t.Fatalf("len %d", b.Len())
	}
}
