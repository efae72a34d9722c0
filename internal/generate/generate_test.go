package generate

import (
	"testing"

	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/tensor"
	"pac/internal/train"
)

func lmConfig(vocab int) model.Config {
	cfg := model.Tiny()
	cfg.Vocab = vocab
	cfg.NumClasses = vocab
	cfg.LM = true
	cfg.MaxSeq = 32
	return cfg
}

func TestGenSeq2SeqShapesAndTasks(t *testing.T) {
	for _, task := range []Task{Copy, Reverse, Increment} {
		ds := GenSeq2Seq(task, 10, 8, 3, 32, 1)
		if ds.Len() != 10 {
			t.Fatalf("size %d", ds.Len())
		}
		for _, ex := range ds.Examples {
			if len(ex.Enc) != 8 || len(ex.Target) != 3 {
				t.Fatal("shape wrong")
			}
			for _, tok := range append(append([]int{}, ex.Enc...), ex.Target...) {
				if tok < 2 || tok >= 32 {
					t.Fatalf("token %d outside payload range", tok)
				}
			}
			switch task {
			case Copy:
				for j := range ex.Target {
					if ex.Target[j] != ex.Enc[j] {
						t.Fatal("copy target wrong")
					}
				}
			case Reverse:
				for j := range ex.Target {
					if ex.Target[j] != ex.Enc[2-j] {
						t.Fatal("reverse target wrong")
					}
				}
			case Increment:
				for j := range ex.Target {
					want := ex.Enc[j] + 1
					if want >= 32 {
						want = 2
					}
					if ex.Target[j] != want {
						t.Fatal("increment target wrong")
					}
				}
			}
		}
	}
}

func TestBatchOfTeacherForcing(t *testing.T) {
	ds := GenSeq2Seq(Copy, 2, 6, 3, 16, 2)
	b := BatchOf(ds.Examples)
	if b.DecSeq != 4 { // BOS + 3 target tokens
		t.Fatalf("DecSeq %d", b.DecSeq)
	}
	if len(b.Labels) != 2*4 {
		t.Fatalf("labels %d", len(b.Labels))
	}
	// Decoder input row = [BOS, t0, t1, t2]; labels row = [t0, t1, t2, EOS].
	ex := ds.Examples[0]
	if b.DecIn[0][0] != BOS || b.DecIn[0][1] != ex.Target[0] {
		t.Fatal("decoder input misaligned")
	}
	if b.Labels[0] != ex.Target[0] || b.Labels[3] != EOS {
		t.Fatal("labels misaligned")
	}
}

func TestLMModelLogitShape(t *testing.T) {
	cfg := lmConfig(32)
	m := model.New(cfg)
	tech := peft.New(peft.Full, m, peft.Options{})
	ds := GenSeq2Seq(Copy, 3, 6, 2, 32, 3)
	b := BatchOf(ds.Examples)
	res := tech.Forward(b.Enc, b.DecIn, b.Lens, false)
	if got := res.Logits.Value.Shape(); got[0] != 3*b.DecSeq || got[1] != 32 {
		t.Fatalf("logits shape %v", got)
	}
}

func TestFullModelLearnsCopyTask(t *testing.T) {
	ds := GenSeq2Seq(Copy, 192, 8, 2, 24, 4)
	trainDS, evalDS := ds.Split(0.2)
	cfg := lmConfig(24)
	m := model.New(cfg)
	tech := peft.New(peft.Full, m, peft.Options{})
	tr := &Trainer{Tech: tech, Opt: train.NewAdam(tech.Trainable(), 4e-3), Clip: 1}
	loader := NewLoader(trainDS, 16, 1)
	first := tr.TrainEpoch(loader, 0)
	var last float64
	for ep := 1; ep < 15; ep++ {
		last = tr.TrainEpoch(loader, ep)
	}
	if last >= first/2 {
		t.Fatalf("LM loss barely moved: %.4f → %.4f", first, last)
	}
	exact, token := Eval(tech, evalDS, 16)
	if token < 0.6 {
		t.Fatalf("token accuracy %.2f — copy task not learned (exact %.2f)", token, exact)
	}
}

func TestParallelAdaptersGenerativeFineTune(t *testing.T) {
	// PA must train on generation tasks through the same side network:
	// loss must fall substantially, and decoding must run through the
	// adapter path.
	ds := GenSeq2Seq(Copy, 128, 8, 2, 24, 5)
	cfg := lmConfig(24)
	m := model.New(cfg)
	tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 2})
	tr := &Trainer{Tech: tech, Opt: train.NewAdam(tech.Trainable(), 5e-3), Clip: 1}
	loader := NewLoader(ds, 16, 2)
	first := tr.TrainEpoch(loader, 0)
	var last float64
	for ep := 1; ep < 10; ep++ {
		last = tr.TrainEpoch(loader, ep)
	}
	if last >= first*0.8 {
		t.Fatalf("PA generative loss did not fall: %.4f → %.4f", first, last)
	}
	out := Decode(tech, [][]int{ds.Examples[0].Enc}, []int{8}, Options{MaxLen: 4})
	if len(out) != 1 || len(out[0]) > 4 {
		t.Fatalf("decode output malformed: %v", out)
	}
}

func TestDecodeStopsAtEOS(t *testing.T) {
	// An untrained model eventually emits EOS or hits MaxLen; either way
	// Decode must terminate and strip framing tokens.
	cfg := lmConfig(8)
	m := model.New(cfg)
	tech := peft.New(peft.Full, m, peft.Options{})
	out := Decode(tech, [][]int{{2, 3, 4, 5}, {5, 4, 3, 2}}, []int{4, 4}, Options{MaxLen: 5})
	if len(out) != 2 {
		t.Fatalf("batch size %d", len(out))
	}
	for _, seq := range out {
		if len(seq) > 5 {
			t.Fatalf("overlong output %v", seq)
		}
		for _, tok := range seq {
			if tok == BOS || tok == EOS {
				t.Fatalf("framing token leaked: %v", seq)
			}
		}
	}
}

func TestDecodeGreedyDeterministicSamplingNot(t *testing.T) {
	cfg := lmConfig(16)
	m := model.New(cfg)
	tech := peft.New(peft.Full, m, peft.Options{})
	enc := [][]int{{2, 3, 4, 5, 6, 7}}
	lens := []int{6}
	a := Decode(tech, enc, lens, Options{MaxLen: 6})
	b := Decode(tech, enc, lens, Options{MaxLen: 6})
	if !equalSeq(a[0], b[0]) {
		t.Fatal("greedy decode not deterministic")
	}
	// High-temperature samples with different seeds should differ with
	// overwhelming probability over 6 steps of a 16-way vocabulary.
	s1 := Decode(tech, enc, lens, Options{MaxLen: 6, Temperature: 5, Seed: 1})
	s2 := Decode(tech, enc, lens, Options{MaxLen: 6, Temperature: 5, Seed: 2})
	if equalSeq(s1[0], s2[0]) {
		t.Fatalf("sampled sequences identical: %v", s1[0])
	}
}

func TestMetrics(t *testing.T) {
	pred := [][]int{{1, 2, 3}, {4, 5}, {7, 8, 9}}
	targ := [][]int{{1, 2, 3}, {4, 5, 6}, {7, 0, 9}}
	if got := ExactMatch(pred, targ); got != 1.0/3 {
		t.Fatalf("ExactMatch %v", got)
	}
	// Token accuracy: 3/3 + 2/3 + 2/3 over 9 target tokens = 7/9.
	if got := TokenAccuracy(pred, targ); got < 7.0/9-1e-9 || got > 7.0/9+1e-9 {
		t.Fatalf("TokenAccuracy %v", got)
	}
}

func TestLoaderCoversDataset(t *testing.T) {
	ds := GenSeq2Seq(Reverse, 10, 6, 2, 16, 6)
	l := NewLoader(ds, 4, 1)
	seen := map[int]bool{}
	for _, b := range l.Epoch(0) {
		for _, id := range b.IDs {
			seen[id] = true
		}
	}
	if len(seen) != 10 {
		t.Fatalf("epoch covered %d/10", len(seen))
	}
}

// TestDecodeReturnsItsBuffers pins the ownership rule for a forward's
// buffers: Decode hands each step's graph, logits and taps back to the
// pool once the tokens are picked, and the zero side state every step
// starts from is not pooled, so a long-lived server's outstanding bytes
// do not move with the number of requests it has answered.
func TestDecodeReturnsItsBuffers(t *testing.T) {
	tech := peft.NewParallel(model.New(lmConfig(32)), peft.Options{Reduction: 4})
	enc, lens := [][]int{{2, 3, 4, 5}}, []int{4}
	outstanding := func() int64 { return tensor.ReadPoolStats().BytesOutstanding }

	Decode(tech, enc, lens, Options{MaxLen: 6})
	before := outstanding()
	for call := 0; call < 8; call++ {
		Decode(tech, enc, lens, Options{MaxLen: 6})
	}
	if grew := outstanding() - before; grew != 0 {
		t.Fatalf("outstanding pool bytes grew by %d over 8 calls: Decode keeps buffers", grew)
	}
}
