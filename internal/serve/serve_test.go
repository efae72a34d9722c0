package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"testing"

	"pac/internal/checkpoint"
	"pac/internal/core"
	"pac/internal/data"
	"pac/internal/generate"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/train"
)

func server(t *testing.T) (*Server, model.Config) {
	t.Helper()
	cfg := model.Tiny()
	m := model.New(cfg)
	return NewServer(peft.NewParallel(m, peft.Options{Reduction: 4}), cfg), cfg
}

func TestClassifyCountsAndShapes(t *testing.T) {
	s, _ := server(t)
	preds, err := s.ClassifyFor(context.Background(), AnonUser, [][]int{{2, 3, 4, 5}, {6, 7, 8, 9}}, []int{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("preds %v", preds)
	}
	for _, p := range preds {
		if p < 0 || p > 1 {
			t.Fatalf("class %d out of range", p)
		}
	}
	if s.Served() != 2 {
		t.Fatalf("served %d", s.Served())
	}
}

func TestGenerateRequiresLMConfig(t *testing.T) {
	s, _ := server(t)
	if _, err := s.GenerateFor(context.Background(), AnonUser, [][]int{{2, 3}}, []int{2}, generate.Options{}); err == nil {
		t.Fatal("non-LM server generated")
	}

	cfg := model.Tiny()
	cfg.Vocab, cfg.NumClasses, cfg.LM = 16, 16, true
	lm := NewServer(peft.NewParallel(model.New(cfg), peft.Options{Reduction: 4}), cfg)
	out, err := lm.GenerateFor(context.Background(), AnonUser, [][]int{{2, 3, 4, 5}}, []int{4}, generate.Options{MaxLen: 3})
	if err != nil || len(out) != 1 {
		t.Fatalf("generate: %v %v", out, err)
	}
}

func TestUpdateWeightsChangesAnswers(t *testing.T) {
	s, _ := server(t)
	enc := [][]int{{2, 3, 4, 5}}
	lens := []int{4}
	if _, err := s.ClassifyFor(context.Background(), AnonUser, enc, lens); err != nil { // warm
		t.Fatal(err)
	}

	// Push deliberately skewed weights: bias the head hard toward class 1.
	flat := s.SnapshotWeights()
	// The head bias is the last two entries (Linear [r,2] + bias [2]).
	flat[len(flat)-2] = -100
	flat[len(flat)-1] = +100
	s.UpdateWeights(flat)
	got, err := s.ClassifyFor(context.Background(), AnonUser, enc, lens)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("skewed head still predicts %d", got[0])
	}
	if s.Swaps() != 1 {
		t.Fatalf("swaps %d", s.Swaps())
	}
}

func TestSwapCheckpointHotReload(t *testing.T) {
	s, cfg := server(t)
	// Train a second replica briefly, checkpoint it, and hot-swap.
	m2 := model.New(cfg)
	tech2 := peft.New(peft.ParallelAdapters, m2, peft.Options{Reduction: 4})
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 16, SeqLen: 8, Vocab: 64, Seed: 1})
	tr := &train.Trainer{Tech: tech2, Opt: train.NewSGD(tech2.Trainable(), 0.05, 0, 0)}
	tr.TrainBatch(data.BatchOf(ds.Examples))
	path := filepath.Join(t.TempDir(), "hot.pack")
	if err := checkpoint.Save(path, "hot", tech2, cfg, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.SwapCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	// Server now computes exactly what the trained replica computes.
	enc, lens := [][]int{{3, 4, 5, 6}}, []int{4}
	want := tech2.Forward(enc, [][]int{{0}}, lens, false).Logits.Value.Data
	got := s.side.Load().Forward(enc, [][]int{{0}}, lens, false).Logits.Value.Data
	for i := range want {
		if want[i] != got[i] {
			t.Fatal("swap did not install trained weights")
		}
	}
	if err := s.SwapCheckpoint(filepath.Join(t.TempDir(), "missing.pack")); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

func TestServeWhileFineTuning(t *testing.T) {
	// The Figure-1 loop: the agent answers queries from the reference
	// replica while PAC fine-tunes in the background, then adopts the new
	// adapters.
	cfg := model.Tiny()
	f := core.New(core.Config{Model: cfg, Opts: peft.Options{Reduction: 4},
		Stages: 2, Lanes: 1, LR: 0.05})
	// The server owns its own replica; training state flows to it only
	// through UpdateWeights (never by aliasing the framework's replica,
	// which the fine-tuning loop mutates concurrently).
	serveModel := model.New(cfg)
	s := NewServer(peft.NewParallel(serveModel, peft.Options{Reduction: 4}), cfg)

	stop := make(chan struct{})
	var served int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := s.ClassifyFor(context.Background(), AnonUser, [][]int{{2, 3, 4, 5}}, []int{4}); err != nil {
					t.Error(err)
					return
				}
				served++
			}
		}
	}()

	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 16, SeqLen: 8, Vocab: 64, Seed: 2})
	if _, err := f.FineTune(ds, 8, 2, 1); err != nil {
		t.Fatal(err)
	}
	// Push the fine-tuned adapters to the live server.
	s.UpdateWeights(nn.FlattenParams(f.Reference().Trainable()))
	close(stop)
	wg.Wait()
	if served == 0 {
		t.Fatal("server answered nothing during fine-tuning")
	}
	if s.Swaps() != 1 {
		t.Fatalf("swaps %d", s.Swaps())
	}
}

func TestCancelledRequestNotCounted(t *testing.T) {
	s, _ := server(t)
	enc, lens := [][]int{{2, 3, 4, 5}}, []int{4}

	// Already-canceled context: rejected before the model runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ClassifyFor(ctx, AnonUser, enc, lens); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if _, err := s.GenerateFor(ctx, AnonUser, enc, lens, generate.Options{}); err == nil {
		t.Fatal("canceled generate succeeded")
	}
	if s.Served() != 0 {
		t.Fatalf("canceled request counted as served: %d", s.Served())
	}
	if s.Canceled() == 0 {
		t.Fatal("cancellation not recorded")
	}
	if _, err := s.ClassifyFor(ctx, 7, enc, lens); !errors.Is(err, context.Canceled) {
		t.Fatalf("attributed request: want context.Canceled, got %v", err)
	}
	if memInflight.Bytes() != 0 {
		t.Fatalf("canceled requests hold %d in-flight bytes", memInflight.Bytes())
	}
	if s.Users() != 0 {
		t.Fatalf("abandoned request attributed: %v", s.UserCounts())
	}
}

func TestPerUserAttribution(t *testing.T) {
	s, _ := server(t)
	ctx := context.Background()
	enc, lens := [][]int{{2, 3, 4, 5}}, []int{4}
	for _, u := range []int{3, 3, 9} {
		if _, err := s.ClassifyFor(ctx, u, enc, lens); err != nil {
			t.Fatal(err)
		}
	}
	// Anonymous requests serve but are not attributed.
	if _, err := s.ClassifyFor(ctx, AnonUser, enc, lens); err != nil {
		t.Fatal(err)
	}
	if s.Users() != 2 {
		t.Fatalf("users %d want 2", s.Users())
	}
	counts := s.UserCounts()
	if counts[3] != 2 || counts[9] != 1 {
		t.Fatalf("counts %v", counts)
	}
	if s.Served() != 4 {
		t.Fatalf("served %d want 4", s.Served())
	}
}

// TestConcurrentGenerateDuringSwaps runs 8 GenerateFor callers on one
// Parallel Adapters server while /swap alternates two adapter sets.
// Every reply is what Decode answers under one of the two sets — a
// request runs wholly on the side network it loaded at admission — and
// under -race the cached decoders share the backbone and the side
// networks without a data race.
func TestConcurrentGenerateDuringSwaps(t *testing.T) {
	_, s, cfg := httpServer(t, true)
	h := HandlerFor(s)
	pa := s.side.Load()
	prompts := [][]int{{2, 3, 4, 5}, {5, 6, 7, 8, 9}, {10, 11, 12}, {4, 4, 9, 13, 2, 7}}
	opts := generate.Options{MaxLen: 5}

	setA := nn.FlattenParams(pa.Trainable())
	setB := append([]float32(nil), setA...)
	for i := range setB {
		setB[i] += float32(i%7-3) * 0.3
	}
	var paths [2]string
	var want [2][][]int
	for set, vals := range [][]float32{setA, setB} {
		nn.UnflattenParams(pa.Trainable(), vals)
		paths[set] = filepath.Join(t.TempDir(), fmt.Sprintf("set%d.pack", set))
		if err := checkpoint.Save(paths[set], "set", pa, cfg, 0); err != nil {
			t.Fatal(err)
		}
		for _, p := range prompts {
			want[set] = append(want[set], generate.Decode(pa, [][]int{p}, []int{len(p)}, opts)[0])
		}
	}
	differ := 0
	for j := range prompts {
		if fmt.Sprint(want[0][j]) != fmt.Sprint(want[1][j]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the two adapter sets decode every prompt alike: the swaps would go unseen")
	}
	nn.UnflattenParams(pa.Trainable(), setA)

	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				j := (c + r) % len(prompts)
				out, err := s.GenerateFor(context.Background(), c, [][]int{prompts[j]}, []int{len(prompts[j])}, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(out[0]); got != fmt.Sprint(want[0][j]) && got != fmt.Sprint(want[1][j]) {
					t.Errorf("caller %d prompt %d: %v, want %v (set A) or %v (set B)", c, j, out[0], want[0][j], want[1][j])
				}
			}
		}(c)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	// Swap for as long as the callers run, and at least 10 times.
	swaps := 0
swapping:
	for ; ; swaps++ {
		if swaps >= 10 {
			select {
			case <-finished:
				break swapping
			default:
			}
		}
		body := fmt.Sprintf(`{"path":%q}`, paths[(swaps+1)%2])
		if code := postDirect(h, "/swap", body); code != http.StatusOK {
			t.Errorf("swap %d: status %d", swaps, code)
			break
		}
	}
	<-finished
	if s.Served() != 8*6 || s.Swaps() != int64(swaps) {
		t.Fatalf("served %d, swaps %d; want 48 and %d", s.Served(), s.Swaps(), swaps)
	}
}
