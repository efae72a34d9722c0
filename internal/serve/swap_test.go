package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"pac/internal/checkpoint"
	"pac/internal/generate"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/tensor"
)

// adapterSets are two side networks over one LM backbone, each also
// saved as a checkpoint, for tests that swap between them.
type adapterSets struct {
	cfg   model.Config
	side  [2]*peft.Parallel
	flat  [2][]float32
	paths [2]string
}

// newAdapterSets builds set A (as NewParallel initializes it) and set B
// (A perturbed) over one LM Tiny backbone, quantized when the backend
// computes in int8, and a server that starts on a copy of A.
func newAdapterSets(t *testing.T) (*Server, *adapterSets) {
	t.Helper()
	cfg := model.Tiny()
	cfg.Vocab, cfg.NumClasses, cfg.LM = 16, 16, true
	m := model.New(cfg)
	a := &adapterSets{cfg: cfg}
	a.side[0] = peft.NewParallel(m, peft.Options{Reduction: 4})
	if tensor.BackendQuantized() {
		m.QuantizeBackbone()
	}
	a.flat[0] = nn.FlattenParams(a.side[0].Trainable())
	a.flat[1] = append([]float32(nil), a.flat[0]...)
	for i := range a.flat[1] {
		a.flat[1][i] += float32(i%7-3) * 0.3
	}
	a.side[1] = a.side[0].Clone()
	nn.UnflattenParams(a.side[1].Trainable(), a.flat[1])
	for set, side := range a.side {
		a.paths[set] = filepath.Join(t.TempDir(), fmt.Sprintf("set%d.pack", set))
		if err := checkpoint.Save(a.paths[set], "set", side, cfg, 0); err != nil {
			t.Fatal(err)
		}
	}
	return NewServer(a.side[0].Clone(), cfg), a
}

// classifyDirect is ClassifyFor's answer for one prompt, computed on
// side without a server.
func classifyDirect(side *peft.Parallel, prompt []int) int {
	res := side.Forward([][]int{prompt}, [][]int{{0}}, []int{len(prompt)}, false)
	defer res.Release(res.Logits)
	return tensor.ArgMaxRows(res.Logits.Value)[0]
}

// TestSwapsKeepAnswersConsistent: 8 callers classify and generate while
// a ninth goroutine swaps 200 times, alternating SwapCheckpoint and
// UpdateWeights between sets A and B. Every answer is the one set A or
// set B gives when computed directly — a request runs wholly on the side
// network it loaded — and under -race nothing a swap writes is read by a
// request.
func TestSwapsKeepAnswersConsistent(t *testing.T) {
	s, sets := newAdapterSets(t)
	prompts := [][]int{{2, 3, 4, 5}, {5, 6, 7, 8, 9}, {10, 11, 12}, {4, 4, 9, 13, 2, 7}}
	opts := generate.Options{MaxLen: 4}
	var wantCls [2][]int
	var wantGen [2][]string
	for set, side := range sets.side {
		for _, p := range prompts {
			wantCls[set] = append(wantCls[set], classifyDirect(side, p))
			wantGen[set] = append(wantGen[set], fmt.Sprint(generate.Decode(side, [][]int{p}, []int{len(p)}, opts)[0]))
		}
	}
	differ := 0
	for j := range prompts {
		if wantCls[0][j] != wantCls[1][j] {
			differ++
		}
		if wantGen[0][j] != wantGen[1][j] {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("sets A and B answer every prompt alike: the swaps would go unseen")
	}

	const swaps = 200
	var stop atomic.Bool
	var wg sync.WaitGroup
	ctx := context.Background()
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; !stop.Load() || r < 4; r++ {
				j := (c + r) % len(prompts)
				p := prompts[j]
				if (c+r)%2 == 0 {
					cls, err := s.ClassifyFor(ctx, c, [][]int{p}, []int{len(p)})
					if err != nil {
						t.Error(err)
						return
					}
					if cls[0] != wantCls[0][j] && cls[0] != wantCls[1][j] {
						t.Errorf("classify prompt %d: %d, want %d (set A) or %d (set B)", j, cls[0], wantCls[0][j], wantCls[1][j])
					}
					continue
				}
				out, err := s.GenerateFor(ctx, c, [][]int{p}, []int{len(p)}, opts)
				if err != nil {
					t.Error(err)
					return
				}
				if got := fmt.Sprint(out[0]); got != wantGen[0][j] && got != wantGen[1][j] {
					t.Errorf("generate prompt %d: %s, want %s (set A) or %s (set B)", j, got, wantGen[0][j], wantGen[1][j])
				}
			}
		}(c)
	}
	for i := 0; i < swaps; i++ {
		to := (i + 1) % 2
		if (i/2)%2 == 0 {
			if err := s.SwapCheckpoint(sets.paths[to]); err != nil {
				t.Fatal(err)
			}
		} else {
			s.UpdateWeights(sets.flat[to])
		}
	}
	stop.Store(true)
	wg.Wait()
	if s.Swaps() != swaps {
		t.Fatalf("swaps %d, want %d", s.Swaps(), swaps)
	}
}

// TestSwapDoesNotWaitForARequest: with a long /generate in flight, a
// swap returns while that request still holds its in-flight bytes.
func TestSwapDoesNotWaitForARequest(t *testing.T) {
	s, sets := newAdapterSets(t)
	// No EOS in set A, so every row decodes all MaxLen tokens.
	flat := append([]float32(nil), sets.flat[0]...)
	flat[len(flat)-sets.cfg.Vocab+generate.EOS] = -100
	s.UpdateWeights(flat)

	enc := make([][]int, 256)
	lens := make([]int, len(enc))
	for i := range enc {
		enc[i] = make([]int, 24)
		for j := range enc[i] {
			enc[i][j] = 2 + (i+j)%13
		}
		lens[i] = len(enc[i])
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.GenerateFor(context.Background(), AnonUser, enc, lens, generate.Options{MaxLen: sets.cfg.MaxSeq})
		done <- err
	}()
	for memInflight.Bytes() == 0 { // the request is past admission
		select {
		case err := <-done:
			t.Fatalf("generate returned before it was seen in flight: %v", err)
		default:
			runtime.Gosched()
		}
	}
	if err := s.SwapCheckpoint(sets.paths[1]); err != nil {
		t.Fatal(err)
	}
	if memInflight.Bytes() == 0 {
		t.Fatal("the swap returned only after the in-flight generate finished")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s.Swaps() != 2 || memInflight.Bytes() != 0 {
		t.Fatalf("swaps %d, in-flight %d B; want 2 and 0", s.Swaps(), memInflight.Bytes())
	}
}

// TestFailedSwapPublishesNothing: a checkpoint that fails any of
// checkpoint.Load's checks leaves the served side network, its answers
// and the swap count as they were.
func TestFailedSwapPublishesNothing(t *testing.T) {
	s, sets := newAdapterSets(t)
	dir := t.TempDir()
	save := func(name string, tech peft.Technique, cfg model.Config) string {
		path := filepath.Join(dir, name+".pack")
		if err := checkpoint.Save(path, name, tech, cfg, 0); err != nil {
			t.Fatal(err)
		}
		return path
	}
	otherSeq := sets.cfg
	otherSeq.MaxSeq = 16
	bad := map[string]string{
		"missing file":         filepath.Join(dir, "missing.pack"),
		"wrong technique kind": save("lora", peft.New(peft.LoRA, model.New(sets.cfg), peft.Options{}), sets.cfg),
		"fingerprint mismatch": save("seq", peft.NewParallel(model.New(otherSeq), peft.Options{Reduction: 4}), otherSeq),
		"shape mismatch":       save("shape", peft.NewParallel(model.New(sets.cfg), peft.Options{Reduction: 2}), sets.cfg),
	}
	prompt := []int{2, 3, 4, 5}
	served := s.side.Load()
	want := classifyDirect(served, prompt)
	for name, path := range bad {
		if err := s.SwapCheckpoint(path); err == nil {
			t.Fatalf("%s: swap accepted", name)
		}
		if s.side.Load() != served || s.Swaps() != 0 {
			t.Fatalf("%s: a failed swap published (swaps %d)", name, s.Swaps())
		}
		got, err := s.ClassifyFor(context.Background(), AnonUser, [][]int{prompt}, []int{len(prompt)})
		if err != nil || got[0] != want {
			t.Fatalf("%s: answer %v (%v), want %d", name, got, err, want)
		}
		if !bitsEqual(s.SnapshotWeights(), sets.flat[0]) {
			t.Fatalf("%s: a failed swap changed the served weights", name)
		}
	}
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSnapshotAfterUpdateRoundTrips: SnapshotWeights returns what
// UpdateWeights installed, bit for bit.
func TestSnapshotAfterUpdateRoundTrips(t *testing.T) {
	s, sets := newAdapterSets(t)
	s.UpdateWeights(sets.flat[1])
	if !bitsEqual(s.SnapshotWeights(), sets.flat[1]) {
		t.Fatal("SnapshotWeights after UpdateWeights(flat) is not flat")
	}
}

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

// backboneSum hashes a backbone's weights, their frozen flags and the
// int8 forms of its projections — TestOneFrozenBackbone's checksum
// (internal/core) plus the flags a Clone must not write.
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
		if p.RequiresGrad() {
			h.Write([]byte{1})
		}
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

// TestServingLeavesTheBackboneAlone: on each backend, 2,000 served
// requests (classify and generate, from 4 callers) and 100 swaps leave
// the one frozen backbone — weights, frozen flags, int8 forms — bit for
// bit as it was.
func TestServingLeavesTheBackboneAlone(t *testing.T) {
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
			s, sets := newAdapterSets(t)
			m := sets.side[0].Backbone()
			for _, l := range projections(m) {
				if got, want := l.QW != nil, tensor.BackendQuantized(); got != want {
					t.Fatalf("a projection has int8 forms %v on backend %s", got, backend)
				}
			}
			before := backboneSum(m)

			const callers, requests, swaps = 4, 2000, 100
			var next atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx := context.Background()
					for i := next.Add(1); i <= requests; i = next.Add(1) {
						p := []int{2 + int(i)%11, 3, 4 + int(i)%7, 5}
						var err error
						if i%10 == 0 {
							_, err = s.GenerateFor(ctx, AnonUser, [][]int{p}, []int{len(p)}, generate.Options{MaxLen: 3})
						} else {
							_, err = s.ClassifyFor(ctx, AnonUser, [][]int{p}, []int{len(p)})
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			for i := 0; i < swaps; i++ {
				if i%2 == 0 {
					if err := s.SwapCheckpoint(sets.paths[1]); err != nil {
						t.Fatal(err)
					}
				} else {
					s.UpdateWeights(sets.flat[0])
				}
			}
			wg.Wait()
			if s.Served() != requests || s.Swaps() != swaps {
				t.Fatalf("served %d, swaps %d; want %d and %d", s.Served(), s.Swaps(), requests, swaps)
			}
			if after := backboneSum(m); after != before {
				t.Fatalf("backbone checksum %016x before serving, %016x after", before, after)
			}
		})
	}
}
