package pac

import (
	"math"
	"path/filepath"
	"testing"

	"pac/internal/peft"
)

// The facade tests exercise the library strictly through its public
// surface, the way a downstream user would.

func TestPublicSimulateMatchesPaperHeadline(t *testing.T) {
	res := Simulate(SimSpec{
		Model: T5Base(), Kind: ParallelAdapters, Engine: PAC,
		Cluster: Nanos(8), Batch: 16, EncSeq: 128, DecSeq: 2,
		Samples: 3668, Epochs: 3, UseCache: true,
	})
	if res.OOM {
		t.Fatal("PAC should fit T5-Base")
	}
	if res.Hours < 0.05 || res.Hours > 2 {
		t.Fatalf("hours %.3f out of paper's regime", res.Hours)
	}
}

func TestPublicCheckpointRoundTrip(t *testing.T) {
	m := NewModel(TinyModel())
	tech := Attach(ParallelAdapters, m, TechniqueOptions{Reduction: 4})
	path := filepath.Join(t.TempDir(), "a.pack")
	if err := SaveAdapters(path, "api", tech, TinyModel(), 1); err != nil {
		t.Fatal(err)
	}
	m2 := NewModel(TinyModel())
	tech2 := Attach(ParallelAdapters, m2, TechniqueOptions{Reduction: 4, Seed: 55})
	if err := LoadAdapters(path, tech2, TinyModel()); err != nil {
		t.Fatal(err)
	}
}

func TestPublicProfile(t *testing.T) {
	side := Attach(ParallelAdapters, NewModel(TinyModel()), TechniqueOptions{Reduction: 4}).(*peft.Parallel)
	ds := GenerateDataset(DataGenConfig{Task: MRPC, Size: 8, SeqLen: 8, Vocab: 64, Seed: 1})
	p := Profile(side, ds, 4, 1)
	if p.EffectiveGFLOPS <= 0 || len(p.BlockFwdSec) != len(side.Backbone().Blocks) {
		t.Fatalf("profile %+v", p)
	}
}

func TestPublicCachesInterchangeable(t *testing.T) {
	ds := GenerateDataset(DataGenConfig{Task: MRPC, Size: 8, SeqLen: 8, Vocab: 64, Seed: 2})
	for _, store := range []CacheStore{
		NewMemoryCache(),
		NewF16Cache(),
		NewBoundedCache(NewMemoryCache(), 1<<20),
	} {
		f := New(Config{Model: TinyModel(), Opts: TechniqueOptions{Reduction: 4},
			Stages: 2, Lanes: 1, LR: 0.05, Cache: store})
		if _, err := f.FineTune(ds, 4, 2, 1); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPublicDevicePresets(t *testing.T) {
	c := Nanos(4)
	if c.Size() != 4 {
		t.Fatal("Nanos broken")
	}
	if JetsonTX2().GFLOPS <= JetsonNano().GFLOPS {
		t.Fatal("TX2 should outclass Nano")
	}
	if RaspberryPi4().GFLOPS >= JetsonNano().GFLOPS {
		t.Fatal("RPi4 should trail Nano")
	}
	h := Homogeneous(JetsonTX2(), 3)
	if h.Size() != 3 {
		t.Fatal("Homogeneous broken")
	}
}

func TestPublicShuffleIsPermutation(t *testing.T) {
	ds := GenerateDataset(DataGenConfig{Task: SST2, Size: 20, SeqLen: 8, Vocab: 64, Seed: 3})
	sh := Shuffle(ds, 1)
	if sh.Len() != ds.Len() {
		t.Fatal("length changed")
	}
	seen := map[int]bool{}
	moved := false
	for i, ex := range sh.Examples {
		seen[ex.ID] = true
		if ex.ID != ds.Examples[i].ID {
			moved = true
		}
	}
	if len(seen) != ds.Len() || !moved {
		t.Fatal("not a proper shuffle")
	}
	// Original untouched.
	for i, ex := range ds.Examples {
		if ex.ID != i {
			t.Fatal("Shuffle mutated its input")
		}
	}
}

func TestPublicModelPresets(t *testing.T) {
	if math.Abs(float64(T5Large().ParamCount())/1e6-737) > 20 {
		t.Fatal("T5-Large preset drifted")
	}
	for _, cfg := range []ModelConfig{T5Base(), BARTLarge(), T5Large(), TinyModel(), SmallModel()} {
		if cfg.ParamCount() <= 0 || cfg.TotalBlocks() != 2*cfg.Layers+3 {
			t.Fatalf("preset %s inconsistent", cfg.Name)
		}
	}
}
