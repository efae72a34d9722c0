package generate

import (
	"math"
	"testing"

	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/tensor"
)

func TestIncrementalMatchesNaiveDecode(t *testing.T) {
	cfg := lmConfig(24)
	m := model.New(cfg)
	tech := peft.New(peft.Full, m, peft.Options{})
	enc := [][]int{{2, 3, 4, 5, 6, 7}, {8, 9, 10, 11, 12, 13}}
	lens := []int{6, 5} // include a padded row to exercise the cross mask
	naive := Decode(tech, enc, lens, Options{MaxLen: 6})
	inc, err := DecodeIncremental(m, enc, lens, Options{MaxLen: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := range naive {
		if !equalSeq(naive[i], inc[i]) {
			t.Fatalf("row %d: naive %v incremental %v", i, naive[i], inc[i])
		}
	}
}

func TestIncrementalStepLogitsMatchFullForward(t *testing.T) {
	cfg := lmConfig(16)
	m := model.New(cfg)
	enc := [][]int{{2, 3, 4, 5}}
	lens := []int{4}
	d, err := NewIncrementalDecoder(m, enc, lens)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Feed BOS, then token 7; each step's logits must be the bits of the
	// full forward's last row over the same prefix.
	prefixes := [][]int{{BOS}, {BOS, 7}}
	feed := []int{BOS, 7}
	for step, tok := range feed {
		got := d.Step([]int{tok})
		want := m.Forward(enc, [][]int{prefixes[step]}, lens, false).Logits.Value
		vocab := got.Dim(1)
		base := (len(prefixes[step]) - 1) * vocab
		for i := 0; i < vocab; i++ {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[base+i]) {
				t.Fatalf("step %d logit %d: incremental %v full %v", step, i, got.Data[i], want.Data[base+i])
			}
		}
	}
}

func TestIncrementalRejectsUnsupportedModels(t *testing.T) {
	// Non-LM model.
	m := model.New(model.Tiny())
	if _, err := NewIncrementalDecoder(m, [][]int{{2, 3}}, []int{2}); err == nil {
		t.Fatal("non-LM model accepted")
	}
	// In-backbone adapters and LoRA alter the backbone math the cached
	// path computes from values.
	for _, kind := range []peft.Kind{peft.Adapters, peft.LoRA} {
		m2 := model.New(lmConfig(16))
		peft.New(kind, m2, peft.Options{Reduction: 4, LoRARank: 2})
		if _, err := NewIncrementalDecoder(m2, [][]int{{2, 3}}, []int{2}); err == nil {
			t.Fatalf("%v-augmented backbone accepted", kind)
		}
	}
}

// hidden256 is a language model at the benchmark's width, two layers
// deep and with half its FF width, so that a full forward per step stays
// cheap under -race.
func hidden256() model.Config {
	return model.Config{Name: "H256", Vocab: 64, Layers: 2, Heads: 4, Hidden: 256,
		FFDim: 512, MaxSeq: 32, NumClasses: 64, LM: true, Seed: 3}
}

// onBackend switches the tensor backend for the rest of the test.
func onBackend(t *testing.T, name string) {
	prev := tensor.ActiveBackend().Name()
	if err := tensor.SetBackend(name); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := tensor.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	})
}

// TestParallelDecoderMatchesFullForward is the exactness contract of the
// cached side-network decoder: on both backends and two shapes, every
// step's logits are the bits of tech.Forward's last row over the same
// prefix — the row Decode picks from — and the tokens are Decode's. The
// batch carries a padded row; the sampled run uses a seed under which
// one row emits EOS early and the other does not, so finished rows are
// fed EOS while the RNG keeps drawing for the live one.
func TestParallelDecoderMatchesFullForward(t *testing.T) {
	shapes := []struct {
		name string
		cfg  model.Config
	}{{"tiny", lmConfig(24)}, {"hidden256", hidden256()}}
	for _, shape := range shapes {
		for _, backend := range []string{"generic", "int8"} {
			t.Run(shape.name+"/"+backend, func(t *testing.T) {
				onBackend(t, backend)
				m := model.New(shape.cfg)
				tech := peft.NewParallel(m, peft.Options{Reduction: 4})
				if tensor.BackendQuantized() && m.QuantizeBackbone() == 0 {
					t.Fatal("int8 backend quantized no projection")
				}
				enc := [][]int{{2, 3, 4, 5, 6, 7, 8, 9}, {9, 8, 7, 6, 5, 4, 3, 2}}
				lens := []int{8, 5}
				checkCached(t, tech, enc, lens, Options{MaxLen: 6})
				sampled := Options{MaxLen: 6, Temperature: 3}
				sampled.Seed = earlyEOSSeed(t, tech, enc, lens, sampled)
				checkCached(t, tech, enc, lens, sampled)
			})
		}
	}
}

// checkCached drives a cached decoder through Decode's loop, comparing
// each step's logits with the full forward over the prefix so far, then
// compares DecodeParallel's tokens with Decode's.
func checkCached(t *testing.T, tech *peft.Parallel, enc [][]int, lens []int, opts Options) {
	t.Helper()
	d, err := NewParallelDecoder(tech, enc, lens)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rng := tensor.NewRNG(opts.Seed)
	dec := make([][]int, len(enc))
	last := make([]int, len(enc))
	for i := range dec {
		dec[i] = []int{BOS}
	}
	done := make([]bool, len(enc))
	for step := 0; step < opts.MaxLen; step++ {
		for i := range dec {
			last[i] = dec[i][step]
		}
		got := d.Step(last)
		res := tech.Forward(enc, dec, lens, false)
		vocab := got.Dim(1)
		for i := range dec {
			want := res.Logits.Value.Data[((i+1)*(step+1)-1)*vocab:][:vocab]
			for j, w := range want {
				if g := got.Data[i*vocab+j]; math.Float32bits(g) != math.Float32bits(w) {
					t.Fatalf("T=%v step %d row %d logit %d: cached %v, full forward %v", opts.Temperature, step, i, j, g, w)
				}
			}
		}
		res.Release(res.Logits)
		allDone := true
		for i := range dec {
			if done[i] {
				dec[i] = append(dec[i], EOS)
				continue
			}
			next := pick(got.Data[i*vocab:(i+1)*vocab], opts.Temperature, rng)
			dec[i] = append(dec[i], next)
			if next == EOS {
				done[i] = true
			} else {
				allDone = false
			}
		}
		if allDone {
			break
		}
	}

	want := Decode(tech, enc, lens, opts)
	got, err := DecodeParallel(tech, enc, lens, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !equalSeq(got[i], want[i]) {
			t.Fatalf("T=%v seed %d row %d: cached %v, Decode %v", opts.Temperature, opts.Seed, i, got[i], want[i])
		}
	}
}

// earlyEOSSeed returns the first sampling seed under which one row stops
// at EOS before MaxLen and another runs to MaxLen.
func earlyEOSSeed(t *testing.T, tech *peft.Parallel, enc [][]int, lens []int, opts Options) int64 {
	t.Helper()
	for seed := int64(1); seed <= 500; seed++ {
		opts.Seed = seed
		out, err := DecodeParallel(tech, enc, lens, opts)
		if err != nil {
			t.Fatal(err)
		}
		short := 0
		for _, row := range out {
			if len(row) < opts.MaxLen {
				short++
			}
		}
		if short > 0 && short < len(out) {
			return seed
		}
	}
	t.Fatal("no seed in 1..500 stops one row early and not the other")
	return 0
}

// TestCachedDecodersReturnTheirBuffers pins the ownership rule of the
// cached decoders: every pooled buffer a request takes — its encoder
// graph, cross K/V, side state, per-step intermediates and logits — goes
// back to the pool, so a long-lived server's outstanding bytes do not
// move with the number of requests it has answered, and the generate.kv
// account returns to 0.
func TestCachedDecodersReturnTheirBuffers(t *testing.T) {
	m := model.New(lmConfig(32))
	tech := peft.NewParallel(m, peft.Options{Reduction: 4})
	enc, lens := [][]int{{2, 3, 4, 5}, {6, 7, 8, 9}}, []int{4, 3}
	opts := Options{MaxLen: 6}
	decoders := []struct {
		name   string
		decode func() ([][]int, error)
	}{
		{"backbone", func() ([][]int, error) { return DecodeIncremental(m, enc, lens, opts) }},
		{"parallel", func() ([][]int, error) { return DecodeParallel(tech, enc, lens, opts) }},
	}
	outstanding := func() int64 { return tensor.ReadPoolStats().BytesOutstanding }
	for _, dc := range decoders {
		t.Run(dc.name, func(t *testing.T) {
			if _, err := dc.decode(); err != nil {
				t.Fatal(err)
			}
			before := outstanding()
			for call := 0; call < 8; call++ {
				if _, err := dc.decode(); err != nil {
					t.Fatal(err)
				}
			}
			if grew := outstanding() - before; grew != 0 {
				t.Fatalf("outstanding pool bytes grew by %d over 8 calls: the decoder keeps buffers", grew)
			}
			if kv := memKV.Bytes(); kv != 0 {
				t.Fatalf("generate.kv holds %d B after the decoders closed", kv)
			}
		})
	}
}

func BenchmarkDecodeIncremental(b *testing.B) {
	cfg := lmConfig(24)
	m := model.New(cfg)
	enc := [][]int{{2, 3, 4, 5, 6, 7, 8, 9}}
	lens := []int{8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeIncremental(m, enc, lens, Options{MaxLen: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate times one /generate request of the serve_generate
// workload's shape — hidden 256, 4 + 4 layers, FF 1024, vocab 256, a
// Parallel Adapters side network, one 16-token prompt, MaxLen 8 — through
// Decode (encoder and decoder re-run per token) and through the cached
// decoder, both legs in one process. CI's perf-gates job holds cached ≥
// 3× decode.
func BenchmarkGenerate(b *testing.B) {
	cfg := model.Config{Name: "Bench", Vocab: 256, Layers: 4, Heads: 4, Hidden: 256,
		FFDim: 1024, MaxSeq: 64, NumClasses: 256, LM: true, Seed: 1}
	tech := peft.NewParallel(model.New(cfg), peft.Options{Reduction: 4})
	enc := [][]int{{17, 33, 21, 54, 9, 200, 87, 3, 140, 66, 251, 12, 98, 45, 180, 7}}
	lens := []int{16}
	opts := Options{MaxLen: 8}
	legs := []struct {
		name   string
		decode func() [][]int
	}{
		{"decode", func() [][]int { return Decode(tech, enc, lens, opts) }},
		{"cached", func() [][]int {
			out, err := DecodeParallel(tech, enc, lens, opts)
			if err != nil {
				b.Fatal(err)
			}
			return out
		}},
	}
	for _, leg := range legs {
		b.Run(leg.name, func(b *testing.B) {
			tokens := 0
			for i := 0; i < b.N; i++ {
				tokens += len(leg.decode()[0])
			}
			b.ReportMetric(float64(tokens)/float64(b.N), "tokens/op")
		})
	}
}
