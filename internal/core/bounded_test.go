package core

import (
	"math"
	"slices"
	"sort"
	"testing"

	"pac/internal/acache"
	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/tensor"
	"pac/internal/train"
)

// entryBytes measures one sample's cached taps by filling a throw-away
// unbounded cache.
func entryBytes(t *testing.T, ds *data.Dataset) int64 {
	t.Helper()
	probe := acache.NewMemoryStore()
	f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
		Stages: 1, Lanes: 1, Cache: probe})
	mustPhase1(t, f, data.NewLoader(ds, 4, 3), 0)
	return probe.Bytes() / int64(probe.Len())
}

// TestBoundedTwoLanesExactRecompute runs the data-parallel shape the
// bounded cache is benchmarked in (1 stage × 2 lanes: two ranks offer
// and read concurrently; run it under -race). Which samples the hybrid
// epoch leaves resident depends on how the lanes interleave, but how
// many does not, so the recompute count is exact — every cached epoch
// recomputes precisely the samples that found no room — and training is
// bit-identical to the unbounded run.
func TestBoundedTwoLanesExactRecompute(t *testing.T) {
	ds := smallDataset(16)
	const batch, epochs, seed, residents = 4, 4, 3, 6
	run := func(store acache.Store) (*Framework, []float32) {
		f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
			Stages: 1, Lanes: 2, LR: 0.05, Adam: true, Cache: store})
		if _, err := f.FineTune(ds, batch, epochs, seed); err != nil {
			t.Fatal(err)
		}
		return f, nn.FlattenParams(f.Reference().Trainable())
	}
	_, full := run(acache.NewMemoryStore())
	per := entryBytes(t, ds)
	for rep := 0; rep < 2; rep++ {
		bounded := acache.NewBounded(acache.NewMemoryStore(), residents*per)
		f, got := run(bounded)
		if bounded.Len() != residents {
			t.Fatalf("run %d: %d residents, want %d", rep, bounded.Len(), residents)
		}
		if want := int64((epochs - 1) * (ds.Len() - residents)); f.Recomputed() != want {
			t.Fatalf("run %d: recomputed %d, want %d", rep, f.Recomputed(), want)
		}
		if st := bounded.Stats(); st.Hits != int64((epochs-1)*residents) {
			t.Fatalf("run %d: %d hits, want %d per cached epoch", rep, st.Hits, residents)
		}
		for i := range full {
			if full[i] != got[i] {
				t.Fatalf("run %d: param %d: bounded %v unbounded %v", rep, i, got[i], full[i])
			}
		}
	}
}

// steadyOver fills a cache through one hybrid epoch and returns
// what SteadyStep needs to run cached steps over it.
func steadyOver(t *testing.T, ds *data.Dataset, store acache.Store) (*Framework, *peft.Parallel, train.Optimizer, []*data.Batch) {
	t.Helper()
	f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
		Stages: 1, Lanes: 1, LR: 0.01, Adam: true, Cache: store})
	loader := data.NewLoader(ds, 4, 1)
	mustPhase1(t, f, loader, 0)
	if err := f.Redistribute(ds); err != nil {
		t.Fatal(err)
	}
	pa := f.Reference()
	return f, pa, train.NewAdam(pa.Trainable(), 0.01), loader.Epoch(1)
}

// TestMissPathReturnsBuffersToPool: a recomputed sample the cache turned
// away must hand every pooled buffer back — taps, backbone graph and
// all. Ten cached steps with misses may move the pool's outstanding
// bytes only as far as the same ten steps do on hits alone.
func TestMissPathReturnsBuffersToPool(t *testing.T) {
	ds := smallDataset(8)
	tenSteps := func(store acache.Store) (grew, misses int64) {
		f, pa, opt, batches := steadyOver(t, ds, store)
		for _, mb := range batches { // warm the pool's free lists
			f.SteadyStep(pa, opt, mb)
		}
		before, miss0 := tensor.ReadPoolStats().BytesOutstanding, f.Recomputed()
		for step := 0; step < 10; step++ {
			f.SteadyStep(pa, opt, batches[step%len(batches)])
		}
		return tensor.ReadPoolStats().BytesOutstanding - before, f.Recomputed() - miss0
	}
	hitsOnly, _ := tenSteps(acache.NewMemoryStore())
	withMisses, misses := tenSteps(acache.NewBounded(acache.NewMemoryStore(), 4*entryBytes(t, ds)))
	if misses == 0 {
		t.Fatal("no misses — test ineffective")
	}
	if withMisses != hitsOnly {
		t.Fatalf("ten cached steps with %d misses moved the pool's outstanding bytes by %d; on hits alone by %d",
			misses, withMisses, hitsOnly)
	}
}

// TestLostEntryIsReadmittedIntact: an unbounded store that lost one
// entry takes the recomputed taps back, and from then on the cache
// holds those very buffers — they must never have gone back to the
// pool, or a later step's allocation would scribble over the entry.
func TestLostEntryIsReadmittedIntact(t *testing.T) {
	ds := smallDataset(8)
	store := acache.NewMemoryStore()
	f, pa, opt, batches := steadyOver(t, ds, store)
	victim := batches[0].IDs[1]
	orig, _ := store.Get(victim)
	want := orig.Clone()
	store.Delete(victim)

	for step := 0; step < 6; step++ {
		f.SteadyStep(pa, opt, batches[step%len(batches)])
	}
	if f.Recomputed() != 1 {
		t.Fatalf("recomputed %d, want the one lost entry once", f.Recomputed())
	}
	got, ok := store.Get(victim)
	if !ok {
		t.Fatal("lost entry not re-admitted")
	}
	for ti := range want {
		for j, v := range want[ti].Data {
			if got[ti].Data[j] != v {
				t.Fatalf("tap %d elem %d of the re-admitted entry: %v, want %v", ti, j, got[ti].Data[j], v)
			}
		}
	}
}

// TestMixedOwnershipMissStep runs one cached step whose batch holds a
// hit and three misses, with room in the cache for two of the misses:
// one backbone walk serves all three, the cache keeps two and turns one
// away. The step may move the pool's outstanding bytes only as far as
// the same step on hits alone, plus the class-rounded bytes of the two
// entries the cache now holds. Those entries are bit-equal to the
// unbounded run's, and the residents are the ones a walk per miss,
// offered in batch order, leaves.
func TestMixedOwnershipMissStep(t *testing.T) {
	ds := smallDataset(8)
	per := entryBytes(t, ds)
	step := func(f *Framework, pa *peft.Parallel, opt train.Optimizer, mb *data.Batch) int64 {
		before := tensor.ReadPoolStats().BytesOutstanding
		f.SteadyStep(pa, opt, mb)
		return tensor.ReadPoolStats().BytesOutstanding - before
	}

	full := acache.NewMemoryStore()
	f, pa, opt, batches := steadyOver(t, ds, full)
	mb := batches[0]
	f.SteadyStep(pa, opt, mb) // warm: gradients and optimizer state stay checked out
	hitsOnly := step(f, pa, opt, mb)

	// The bounded run: after its warm-up step the cache is emptied and
	// given back the entry of batch row 1, so the step meets a hit and
	// three misses with room for two.
	prime := func(b *acache.Bounded) {
		e, _ := full.Get(mb.IDs[1])
		if err := b.Put(mb.IDs[1], e.Clone()); err != nil || !b.Has(mb.IDs[1]) {
			t.Fatalf("priming the hit: %v", err)
		}
	}
	bounded := acache.NewBounded(acache.NewMemoryStore(), 3*per)
	f, pa, opt, _ = steadyOver(t, ds, bounded)
	f.SteadyStep(pa, opt, mb)
	if err := bounded.Clear(); err != nil {
		t.Fatal(err)
	}
	prime(bounded)
	evicted0, recomputed0 := bounded.Evicted(), f.Recomputed()
	grew := step(f, pa, opt, mb)

	misses := int64(len(mb.IDs) - 1)
	if got := f.Recomputed() - recomputed0; got != misses {
		t.Fatalf("recomputed %d samples, want one per miss (%d)", got, misses)
	}
	if got := bounded.Evicted() - evicted0; got != 1 {
		t.Fatalf("cache turned %d entries away, want 1 — test ineffective", got)
	}

	// The per-sample oracle: each miss walked alone and offered in batch
	// order to a cache with the same bound and the same hit.
	oracle := acache.NewBounded(acache.NewMemoryStore(), 3*per)
	prime(oracle)
	for i, id := range mb.IDs {
		if i != 1 {
			e := pa.BackboneTaps(mb.Enc[i:i+1], mb.Dec[i:i+1], mb.Lens[i:i+1])
			if err := oracle.Put(id, e); err != nil {
				t.Fatal(err)
			}
			if !oracle.Has(id) {
				for _, tap := range e {
					tensor.PutTensor(tap)
				}
			}
		}
	}
	got, want := bounded.IDs(), oracle.IDs()
	sort.Ints(got)
	sort.Ints(want)
	if !slices.Equal(got, want) {
		t.Fatalf("residents %v, per-sample offers leave %v", got, want)
	}

	var kept int64
	for _, id := range got {
		e, _ := bounded.Get(id)
		ref, _ := full.Get(id)
		for ti, tap := range e {
			for j, v := range tap.Data {
				if math.Float32bits(v) != math.Float32bits(ref[ti].Data[j]) {
					t.Fatalf("sample %d tap %d elem %d: cached %v, unbounded %v", id, ti, j, v, ref[ti].Data[j])
				}
			}
			if id != mb.IDs[1] {
				kept += classBytes(tap.Numel())
			}
		}
	}
	if grew != hitsOnly+kept {
		t.Fatalf("the mixed step moved the pool's outstanding bytes by %d; hits alone by %d, plus %d kept = %d",
			grew, hitsOnly, kept, hitsOnly+kept)
	}
}

// classBytes is the pool's footprint of an n-float buffer: its
// power-of-two size class, at least 32 floats.
func classBytes(n int) int64 {
	c := int64(32)
	for c < int64(n) {
		c *= 2
	}
	return 4 * c
}
