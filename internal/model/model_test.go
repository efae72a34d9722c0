package model

import (
	"math"
	"testing"

	"pac/internal/autograd"
	"pac/internal/nn"
	"pac/internal/tensor"
)

func tinyBatch() ([][]int, [][]int, []int) {
	enc := [][]int{{5, 6, 7, 8}, {9, 10, 11, 12}}
	dec := [][]int{{0}, {0}}
	lens := []int{4, 3}
	return enc, dec, lens
}

func TestParamCountMatchesPaper(t *testing.T) {
	// Paper Table 1 reports 737M for T5-Large; Table 4 reports 0.25B /
	// 0.41B / 0.74B for the three models.
	cases := []struct {
		cfg       Config
		wantM     float64
		tolerance float64
	}{
		{T5Base(), 250, 30},    // 0.25B
		{BARTLarge(), 410, 30}, // 0.41B
		{T5Large(), 737, 20},   // 737M exactly per Table 1
	}
	for _, c := range cases {
		gotM := float64(c.cfg.ParamCount()) / 1e6
		if math.Abs(gotM-c.wantM) > c.tolerance {
			t.Errorf("%s: %0.0fM params, want %0.0fM ± %0.0f", c.cfg.Name, gotM, c.wantM, c.tolerance)
		}
	}
}

func TestModelForwardShapes(t *testing.T) {
	m := New(Tiny())
	enc, dec, lens := tinyBatch()
	s := m.Forward(enc, dec, lens, false)
	if s.Logits == nil {
		t.Fatal("no logits")
	}
	if got := s.Logits.Value.Shape(); got[0] != 2 || got[1] != 2 {
		t.Fatalf("logits shape %v", got)
	}
	if len(s.Taps) != m.NumTaps() {
		t.Fatalf("taps %d want %d", len(s.Taps), m.NumTaps())
	}
	if !s.Logits.Value.IsFinite() {
		t.Fatal("non-finite logits")
	}
}

func TestModelDeterministicInit(t *testing.T) {
	a, b := New(Tiny()), New(Tiny())
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatal("param list mismatch")
	}
	for i := range pa {
		for j := range pa[i].Value.Data {
			if pa[i].Value.Data[j] != pb[i].Value.Data[j] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
}

func TestModelForwardDeterministicInEval(t *testing.T) {
	m := New(Tiny())
	enc, dec, lens := tinyBatch()
	a := m.Forward(enc, dec, lens, false)
	b := m.Forward(enc, dec, lens, false)
	for i := range a.Logits.Value.Data {
		if a.Logits.Value.Data[i] != b.Logits.Value.Data[i] {
			t.Fatal("eval forward not deterministic")
		}
	}
}

func TestModelBackwardReachesAllParams(t *testing.T) {
	m := New(Tiny())
	enc, dec, lens := tinyBatch()
	s := m.Forward(enc, dec, lens, true)
	loss := autograd.SoftmaxCrossEntropy(s.Logits, []int{0, 1})
	autograd.Backward(loss)
	missing := 0
	for _, p := range m.Params() {
		if p.Grad == nil {
			missing++
		}
	}
	if missing != 0 {
		t.Fatalf("%d params missing grads", missing)
	}
}

func TestFrozenModelProducesNoParamGrads(t *testing.T) {
	m := New(Tiny())
	m.Freeze()
	enc, dec, lens := tinyBatch()
	s := m.Forward(enc, dec, lens, false)
	if s.Logits.RequiresGrad() {
		t.Fatal("frozen model output requires grad")
	}
	if len(nn.TrainableParams(m)) != 0 {
		t.Fatal("freeze incomplete")
	}
}

func TestLayerBlocksAndKinds(t *testing.T) {
	m := New(Tiny())
	lb := m.LayerBlocks()
	if len(lb) != 4 { // 2 enc + 2 dec
		t.Fatalf("LayerBlocks = %v", lb)
	}
	if m.Blocks[0].Kind() != KindEncEmbed {
		t.Fatal("block 0 should be enc-embed")
	}
	if m.Blocks[len(m.Blocks)-1].Kind() != KindHead {
		t.Fatal("last block should be head")
	}
	if KindDecLayer.String() != "dec-layer" || KindHead.String() != "head" {
		t.Fatal("BlockKind.String broken")
	}
}

func TestTotalBlocksConsistent(t *testing.T) {
	for _, cfg := range []Config{Tiny(), Small()} {
		m := New(cfg)
		if len(m.Blocks) != cfg.TotalBlocks() {
			t.Fatalf("%s: %d blocks, config says %d", cfg.Name, len(m.Blocks), cfg.TotalBlocks())
		}
	}
}

func TestSharedTokenTableNotDuplicated(t *testing.T) {
	m := New(Tiny())
	seen := map[*autograd.Variable]bool{}
	for _, p := range m.Params() {
		if seen[p] {
			t.Fatal("duplicate parameter in Params()")
		}
		seen[p] = true
	}
}

func TestPaddingChangesMaskedPositionsOnly(t *testing.T) {
	m := New(Tiny())
	enc := [][]int{{5, 6, 7, 8}}
	dec := [][]int{{0}}
	// With valid length 2, tokens at positions 2,3 must not affect logits.
	a := m.Forward(enc, dec, []int{2}, false)
	enc2 := [][]int{{5, 6, 30, 31}}
	b := m.Forward(enc2, dec, []int{2}, false)
	for i := range a.Logits.Value.Data {
		if math.Abs(float64(a.Logits.Value.Data[i]-b.Logits.Value.Data[i])) > 1e-5 {
			t.Fatal("padded positions leaked into logits")
		}
	}
}

// TestFrozenForwardHoldsOneBlock walks a padded batch through the frozen
// backbone and reads the pool inside visit: what is checked out beyond
// the taps is one block's graph and states, the same at every layer of a
// half, so it does not grow with depth; once the taps are put back the
// pool is where it started. The taps are Forward's bit for bit, on the
// fp32 backbone and on the quantized one.
func TestFrozenForwardHoldsOneBlock(t *testing.T) {
	m := New(Small())
	m.Freeze()
	m.QuantizeBackbone()
	enc := [][]int{{5, 6, 7, 8, 9, 10, 11, 12}, {13, 14, 15, 16, 17, 0, 0, 0}, {18, 19, 20, 0, 0, 0, 0, 0}}
	dec := [][]int{{0}, {0}, {0}}
	lens := []int{8, 5, 3}
	// pooledBytes is what a pooled tensor of t's shape holds checked out.
	pooledBytes := func(t *tensor.Tensor) int64 {
		before := tensor.ReadPoolStats().BytesOutstanding
		u := tensor.GetTensor(t.Shape()...)
		n := tensor.ReadPoolStats().BytesOutstanding - before
		tensor.PutTensor(u)
		return n
	}

	prev := tensor.ActiveBackend().Name()
	defer func() {
		if err := tensor.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, backend := range []string{"generic", "int8"} {
		if err := tensor.SetBackend(backend); err != nil {
			t.Fatal(err)
		}
		ref := m.Forward(enc, dec, lens, false)
		want := make([][]float32, len(ref.Taps))
		for i, tp := range ref.Taps {
			want[i] = append([]float32(nil), tp.Value.Data...)
		}
		autograd.Release(ref.Logits)
		tensor.PutTensor(ref.Logits.Value)

		start := tensor.ReadPoolStats().BytesOutstanding
		var tapBytes int64
		held := make([]int64, m.NumTaps())
		s := &State{EncIDs: enc, DecIDs: dec, EncLens: lens}
		taps := m.FrozenForward(s, 0, len(m.Blocks), func(ti int, tap *tensor.Tensor) {
			tapBytes += pooledBytes(tap)
			held[ti] = tensor.ReadPoolStats().BytesOutstanding - start - tapBytes
		})
		// The first layer of each half also holds its embedding's output,
		// which the walk puts back once that layer's graph is gone.
		for _, half := range [][]int64{held[:m.Cfg.Layers], held[m.Cfg.Layers:]} {
			for j := 2; j < len(half); j++ {
				if half[j] != half[1] || half[j] > half[0] {
					t.Fatalf("%s: pooled bytes held beyond the taps per layer %v: they grow with depth", backend, held)
				}
			}
		}
		if len(taps) != len(want) {
			t.Fatalf("%s: %d taps, Forward made %d", backend, len(taps), len(want))
		}
		for i, tp := range taps {
			for j, v := range tp.Data {
				if math.Float32bits(v) != math.Float32bits(want[i][j]) {
					t.Fatalf("%s: tap %d element %d is %v, Forward's is %v", backend, i, j, v, want[i][j])
				}
			}
		}
		for _, tp := range taps {
			tensor.PutTensor(tp)
		}
		if left := tensor.ReadPoolStats().BytesOutstanding - start; left != 0 {
			t.Fatalf("%s: %d pooled bytes still checked out after the taps went back", backend, left)
		}
		t.Logf("%s: held beyond the taps per layer %v", backend, held)
	}
}
