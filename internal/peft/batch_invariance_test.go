package peft

import (
	"math"
	"math/rand"
	"testing"

	"pac/internal/model"
	"pac/internal/tensor"
)

// TestBackboneTapsBatchInvariant is the law a cached epoch's batched
// miss recompute stands on: each sample's rows of one k-sample
// BackboneTaps call are bit-equal to a call on that sample alone. It
// holds on an fp32 and an int8-quantized backbone, at the Tiny and the
// Bench shape, for rows of different valid lengths. A decoder tap has
// m = k rows, so k ∈ {1, 2, 3, 5, 8} runs the product tiles' row tails.
func TestBackboneTapsBatchInvariant(t *testing.T) {
	prev := tensor.ActiveBackend().Name()
	t.Cleanup(func() {
		if err := tensor.SetBackend(prev); err != nil {
			t.Error(err)
		}
	})
	shapes := []struct {
		cfg model.Config
		seq int
	}{
		{model.Tiny(), 12},
		{model.Config{Name: "Bench", Vocab: 256, Layers: 4, Heads: 4, Hidden: 256,
			FFDim: 1024, MaxSeq: 64, NumClasses: 2, Seed: 1}, 32},
	}
	const samples = 8
	for _, sh := range shapes {
		for _, backend := range []string{"generic", "int8"} {
			t.Run(sh.cfg.Name+"/"+backend, func(t *testing.T) {
				if err := tensor.SetBackend(backend); err != nil {
					t.Fatal(err)
				}
				pa := NewParallel(model.New(sh.cfg), Options{Reduction: 4})
				if backend == "int8" && pa.QuantizeBackbone() == 0 {
					t.Fatal("no projection quantized — test ineffective")
				}
				rng := rand.New(rand.NewSource(7))
				enc, dec, lens := make([][]int, samples), make([][]int, samples), make([]int, samples)
				for i := range enc {
					lens[i] = sh.seq/2 + rng.Intn(sh.seq/2+1)
					enc[i] = make([]int, sh.seq) // padded with id 0 past lens[i]
					for p := 0; p < lens[i]; p++ {
						enc[i][p] = 1 + rng.Intn(sh.cfg.Vocab-1)
					}
					dec[i] = []int{0}
				}
				alone := make([][]*tensor.Tensor, samples)
				for i := range alone {
					alone[i] = pa.BackboneTaps(enc[i:i+1], dec[i:i+1], lens[i:i+1])
				}
				for _, k := range []int{1, 2, 3, 5, 8} {
					// Rotate which samples a batch holds, so a sample's
					// row index moves with k.
					idx := make([]int, k)
					be, bd, bl := make([][]int, k), make([][]int, k), make([]int, k)
					for j := range idx {
						idx[j] = (k + j) % samples
						be[j], bd[j], bl[j] = enc[idx[j]], dec[idx[j]], lens[idx[j]]
					}
					taps := pa.BackboneTaps(be, bd, bl)
					for ti, tap := range taps {
						n := tap.Numel() / k
						for j, s := range idx {
							want := alone[s][ti].Data
							if len(want) != n {
								t.Fatalf("k=%d tap %d: %d values a sample, want %d", k, ti, n, len(want))
							}
							for e, v := range tap.Data[j*n : (j+1)*n] {
								if math.Float32bits(v) != math.Float32bits(want[e]) {
									t.Fatalf("k=%d tap %d row %d (sample %d) elem %d: batched %v, alone %v",
										k, ti, j, s, e, v, want[e])
								}
							}
						}
						tensor.PutTensor(tap)
					}
				}
				for _, taps := range alone {
					for _, tap := range taps {
						tensor.PutTensor(tap)
					}
				}
			})
		}
	}
}
