package core

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"pac/internal/acache"
	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/tensor"
)

// projections lists a backbone's frozen projections: the linears that
// carry int8 forms under a quantized backend.
func projections(m *model.Model) []*nn.Linear {
	var out []*nn.Linear
	for _, b := range m.Blocks {
		switch l := b.(type) {
		case *model.EncLayer:
			out = append(out, l.Attn.Q, l.Attn.K, l.Attn.V, l.Attn.O, l.FF.Up, l.FF.Down)
		case *model.DecLayer:
			out = append(out, l.SelfAttn.Q, l.SelfAttn.K, l.SelfAttn.V, l.SelfAttn.O,
				l.CrossAttn.Q, l.CrossAttn.K, l.CrossAttn.V, l.CrossAttn.O, l.FF.Up, l.FF.Down)
		case *model.Head:
			out = append(out, l.Proj)
		}
	}
	return out
}

// backboneSum hashes a backbone's weights and the int8 forms of its
// frozen projections.
func backboneSum(m *model.Model) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	floats := func(xs []float32) {
		for _, v := range xs {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	for _, p := range m.Params() {
		floats(p.Value.Data)
	}
	for _, l := range projections(m) {
		if l.QW == nil {
			h.Write([]byte{0})
			continue
		}
		for _, q := range l.QW.Q {
			h.Write([]byte{byte(q)})
		}
		floats(l.QW.Scale)
	}
	return h.Sum64()
}

// backboneOf returns the model a Parallel Adapters side network runs.
func backboneOf(tech peft.Technique) uintptr {
	return reflect.ValueOf(tech).Elem().FieldByName("m").Pointer()
}

// TestOneFrozenBackbone: a Framework holds one backbone. Every hybrid
// lane's engine and side network, the reference and every cached-epoch
// rank run that one model; it carries int8 forms exactly when the
// backend computes in int8; and a bounded fine-tune — whose hybrid lanes
// and cache misses run it from several goroutines at once (run it under
// -race) — leaves its weights and int8 forms bit for bit as they were.
func TestOneFrozenBackbone(t *testing.T) {
	ds := smallDataset(16)
	for _, backend := range []string{"generic", "int8"} {
		t.Run(backend, func(t *testing.T) {
			prev := tensor.ActiveBackend().Name()
			if err := tensor.SetBackend(backend); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := tensor.SetBackend(prev); err != nil {
					t.Fatal(err)
				}
			}()
			per := entryBytes(t, ds)
			f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
				Stages: 2, Lanes: 2, LR: 0.05, Adam: true,
				Cache: acache.NewBounded(acache.NewMemoryStore(), 8*per)})
			for _, l := range projections(f.backbone) {
				if got, want := l.QW != nil, tensor.BackendQuantized(); got != want {
					t.Fatalf("a projection has int8 forms %v on backend %s", got, backend)
				}
			}
			before := backboneSum(f.backbone)
			if _, err := f.FineTune(ds, 4, 3, 3); err != nil {
				t.Fatal(err)
			}
			if f.Recomputed() == 0 {
				t.Fatal("no cache misses: the shared backbone never ran in the cached epochs")
			}
			if after := backboneSum(f.backbone); after != before {
				t.Fatalf("backbone checksum %016x before fine-tuning, %016x after", before, after)
			}

			one := reflect.ValueOf(f.backbone).Pointer()
			for l, lane := range f.hybrid.Lanes {
				if reflect.ValueOf(lane.Model).Pointer() != one || backboneOf(lane.Tech) != one {
					t.Fatalf("lane %d runs its own backbone", l)
				}
			}
			if backboneOf(f.reference) != one {
				t.Fatal("the reference runs its own backbone")
			}
			g, err := f.dpGroup()
			if err != nil {
				t.Fatal(err)
			}
			for r, tech := range g.Techs {
				if backboneOf(tech) != one {
					t.Fatalf("rank %d runs its own backbone", r)
				}
			}
		})
	}
}

// TestCachedEpochsReturnTheirTapBatches: a CachedEpochsCtx call leaves
// checked out neither a backbone per rank nor the ranks' last tap
// batches, so consecutive calls grow the pool's outstanding bytes
// equally and by less than one backbone. One step per epoch at batch 16
// makes each rank's last tap batch a third of a backbone, so leaving
// them out crosses that bound too. (What a call still leaves — the
// ranks' side-network parameters, gradients and optimizer state, and a
// few small buffers per step — is the ledger's business, not this
// test's.)
func TestCachedEpochsReturnTheirTapBatches(t *testing.T) {
	const batch = 16
	ds := smallDataset(batch)
	var backbone int64
	for _, p := range model.New(model.Tiny()).Params() {
		backbone += int64(p.Value.Numel()) * 4
	}
	f := New(Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
		Stages: 2, Lanes: 2, LR: 0.05, Adam: true})
	if _, err := f.FineTune(ds, batch, 2, 3); err != nil {
		t.Fatal(err)
	}
	loader := data.NewLoader(ds, batch, 3)
	var grew [2]int64
	for i := range grew {
		before := tensor.ReadPoolStats().BytesOutstanding
		if _, err := f.CachedEpochsCtx(context.Background(), loader, 2+i, 1); err != nil {
			t.Fatal(err)
		}
		grew[i] = tensor.ReadPoolStats().BytesOutstanding - before
	}
	if grew[0] != grew[1] {
		t.Fatalf("consecutive calls grew the pool by %d and %d bytes", grew[0], grew[1])
	}
	if grew[0] >= backbone {
		t.Fatalf("a call grew the pool by %d bytes, at least one backbone (%d)", grew[0], backbone)
	}
}
