package model

import (
	"math"
	"testing"

	"pac/internal/autograd"
	"pac/internal/nn"
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

func TestForwardRangeMatchesFullForward(t *testing.T) {
	m := New(Tiny())
	enc, dec, lens := tinyBatch()
	full := m.Forward(enc, dec, lens, false)

	s := &State{EncIDs: enc, DecIDs: dec, EncLens: lens}
	mid := len(m.Blocks) / 2
	m.ForwardRange(s, 0, mid)
	m.ForwardRange(s, mid, len(m.Blocks))
	for i := range full.Logits.Value.Data {
		if math.Abs(float64(full.Logits.Value.Data[i]-s.Logits.Value.Data[i])) > 1e-6 {
			t.Fatal("staged forward diverges from full forward")
		}
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
