package core

import (
	"context"
	"testing"

	"pac/internal/acache"
	"pac/internal/checkpoint"
	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/tensor"
)

// resumeConfig is the shared shape of the equivalence runs: Adam (so
// optimizer moments matter), 2 stages × 2 lanes.
func resumeConfig(store acache.Store) Config {
	return Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
		Stages: 2, Lanes: 2, LR: 0.02, Adam: true, Cache: store}
}

func adaptersOf(f *Framework) []float32 {
	return nn.FlattenParams(f.Reference().Trainable())
}

// crashAndResume runs the workflow until OnSnapshot reports a capture
// satisfying pick (the simulated crash point: the context is canceled
// between steps, losing the process but not the store), then builds a
// fresh framework over the surviving store, restores the snapshot,
// salvages the cache, and finishes the run from the cursor. Returns the
// resumed framework and the salvage report.
func crashAndResume(t *testing.T, ds *data.Dataset, batch, epochs int, seed int64,
	store acache.Store, pick func(*checkpoint.Snapshot) bool,
	tamper func()) (*Framework, acache.SalvageReport) {
	t.Helper()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var crashSnap *checkpoint.Snapshot
	cfg := resumeConfig(store)
	cfg.SnapshotEvery = 1
	cfg.OnSnapshot = func(s *checkpoint.Snapshot) {
		if crashSnap == nil && pick(s) {
			crashSnap = s
			cancel()
		}
	}
	f1 := New(cfg)
	if _, err := f1.FineTuneFromCtx(ctx, ds, batch, epochs, seed, Cursor{}); err == nil {
		t.Fatal("run survived the injected crash")
	}
	if crashSnap == nil {
		t.Fatal("crash point never reached")
	}

	if tamper != nil {
		tamper()
	}

	// "New process": fresh framework, only the store and the snapshot
	// survive.
	f2 := New(resumeConfig(store))
	if err := f2.RestoreSnapshot(crashSnap); err != nil {
		t.Fatal(err)
	}
	cur := Cursor{Epoch: crashSnap.Epoch, Step: crashSnap.Step}
	outstanding := tensor.ReadPoolStats().BytesOutstanding
	rep, err := f2.SalvageCache(ds, batch, seed, cur)
	if err != nil {
		t.Fatal(err)
	}
	// Salvage recomputes through the backbone alone: the only pooled
	// buffers still checked out afterwards are the taps it handed to the
	// store (a recompute through the whole technique left a side-network
	// graph behind per sample as well).
	grew := tensor.ReadPoolStats().BytesOutstanding - outstanding
	if limit := int64(rep.Recomputed) * pooledBytes(t, store); grew > limit {
		t.Fatalf("salvage (%v) left %d pooled bytes checked out, %d of them taps", rep, grew, limit)
	}
	if _, err := f2.FineTuneFromCtx(context.Background(), ds, batch, epochs, seed, cur); err != nil {
		t.Fatal(err)
	}
	return f2, rep
}

// pooledBytes returns what one cached sample's taps occupy in the
// tensor pool (its buffers come in size classes): a clone checks out
// exactly that much.
func pooledBytes(t *testing.T, store acache.Store) int64 {
	t.Helper()
	e, ok := store.Get(store.IDs()[0])
	if !ok {
		t.Fatal("no readable cache entry to measure")
	}
	before := tensor.ReadPoolStats().BytesOutstanding
	e.Clone()
	return tensor.ReadPoolStats().BytesOutstanding - before
}

// TestResumeEquivalenceCachedPhase is the headline elastic-resume
// guarantee: a run crashed mid-way through a cache-only epoch and
// resumed from its snapshot converges to the BIT-IDENTICAL adapters of
// an uninterrupted run under the same seeds — and the activation cache
// is salvaged, not rebuilt.
func TestResumeEquivalenceCachedPhase(t *testing.T) {
	ds := smallDataset(16)
	const batch, epochs, seed = 4, 3, 1

	ref := New(resumeConfig(acache.NewMemoryStore()))
	if _, err := ref.FineTune(ds, batch, epochs, seed); err != nil {
		t.Fatal(err)
	}
	want := adaptersOf(ref)

	store := acache.NewMemoryStore()
	f2, rep := crashAndResume(t, ds, batch, epochs, seed, store,
		func(s *checkpoint.Snapshot) bool { return s.Epoch >= 1 && s.Step >= 2 }, nil)

	// Cache salvaged: everything verified in place, nothing recomputed.
	if rep.Verified != ds.Len() || rep.Corrupt != 0 || rep.Missing != 0 || rep.Recomputed != 0 {
		t.Fatalf("salvage report %+v, want all %d verified", rep, ds.Len())
	}
	// ... and never rebuilt: each sample was Put exactly once, pre-crash.
	if puts := store.Stats().Puts; puts != int64(ds.Len()) {
		t.Fatalf("cache saw %d puts for %d samples — rebuilt, not salvaged", puts, ds.Len())
	}

	got := adaptersOf(f2)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("adapter param %d diverged after resume: %v vs %v", i, got[i], want[i])
		}
	}
	// Same final eval metric, necessarily.
	a, b := ref.Evaluate(ds, batch), f2.Evaluate(ds, batch)
	if a.Loss != b.Loss {
		t.Fatalf("eval loss diverged: %v vs %v", a.Loss, b.Loss)
	}
}

// TestResumeEquivalenceHybridPhase crashes inside epoch 1 (the hybrid
// cache-filling phase): resume must replay only the remaining batches,
// reuse the already-cached samples, and still match the uninterrupted
// run bit for bit — including the per-stage Adam moments carried across
// the snapshot.
func TestResumeEquivalenceHybridPhase(t *testing.T) {
	ds := smallDataset(16)
	const batch, epochs, seed = 4, 3, 1

	ref := New(resumeConfig(acache.NewMemoryStore()))
	if _, err := ref.FineTune(ds, batch, epochs, seed); err != nil {
		t.Fatal(err)
	}
	want := adaptersOf(ref)

	store := acache.NewMemoryStore()
	f2, rep := crashAndResume(t, ds, batch, epochs, seed, store,
		func(s *checkpoint.Snapshot) bool { return s.Epoch == 0 && s.Step == 2 }, nil)

	// Mid-phase-1 cursor: exactly the first two batches' samples should
	// be cached and verified; nothing recomputed.
	if rep.Verified != 2*batch || rep.Corrupt != 0 || rep.Missing != 0 || rep.Recomputed != 0 {
		t.Fatalf("salvage report %+v, want %d verified", rep, 2*batch)
	}
	if puts := store.Stats().Puts; puts != int64(ds.Len()) {
		t.Fatalf("cache saw %d puts for %d samples — refilled, not resumed", puts, ds.Len())
	}

	got := adaptersOf(f2)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("adapter param %d diverged after hybrid-phase resume", i)
		}
	}
}

// TestResumeSalvagesCorruptEntry: an entry silently corrupted while the
// process was down (flash bit rot) is caught by the manifest checksum
// during salvage and recomputed — never trained on.
func TestResumeSalvagesCorruptEntry(t *testing.T) {
	ds := smallDataset(16)
	const batch, epochs, seed = 4, 3, 1

	store := acache.NewMemoryStore()
	victim := ds.Examples[3].ID
	f2, rep := crashAndResume(t, ds, batch, epochs, seed, store,
		func(s *checkpoint.Snapshot) bool { return s.Epoch >= 1 },
		func() {
			// Replace the entry with a valid-looking but wrong one; only
			// the manifest checksum can tell.
			e, ok := store.Get(victim)
			if !ok {
				t.Fatalf("victim %d not cached", victim)
			}
			bad := e.Clone()
			bad[0].Data[0] += 1
			if err := store.Put(victim, bad); err != nil {
				t.Fatal(err)
			}
		})

	if rep.Corrupt != 1 || rep.Recomputed != 1 || rep.Verified != ds.Len()-1 {
		t.Fatalf("salvage report %+v, want 1 corrupt + recomputed", rep)
	}
	// The recomputed entry satisfies its manifest checksum again.
	e, ok := store.Get(victim)
	if !ok {
		t.Fatal("victim missing after salvage")
	}
	fresh := acache.NewManifest(f2.manifest.Taps())
	fresh.Observe(victim, e)
	if sum, ok := f2.manifest.Sums()[victim]; !ok || fresh.Sums()[victim] != sum {
		t.Fatal("recomputed entry does not match manifest")
	}
}

func TestRestoreSnapshotRejectsMismatch(t *testing.T) {
	f := New(resumeConfig(acache.NewMemoryStore()))
	if err := f.RestoreSnapshot(&checkpoint.Snapshot{Fingerprint: 12345}); err == nil {
		t.Fatal("fingerprint mismatch accepted")
	}
	snap := f.baseSnapshot(0, 0)
	snap.Adapters = cloneValues(f.reference.Trainable())[:1]
	if err := f.RestoreSnapshot(snap); err == nil {
		t.Fatal("adapter count mismatch accepted")
	}
}

func TestResumeCursorPastEndRejected(t *testing.T) {
	ds := smallDataset(8)
	f := New(resumeConfig(acache.NewMemoryStore()))
	if _, err := f.FineTune(ds, 4, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := f.FineTuneFromCtx(context.Background(), ds, 4, 2, 1, Cursor{Epoch: 5}); err == nil {
		t.Fatal("cursor past the run accepted")
	}
}
