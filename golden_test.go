package pac

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pac/internal/acache"
	"pac/internal/checkpoint"
	"pac/internal/core"
	"pac/internal/data"
	"pac/internal/generate"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/parallel"
	"pac/internal/peft"
	"pac/internal/serve"
	"pac/internal/tensor"
	"pac/internal/train"
)

// goldenLine renders one scenario's outputs as "<scenario> <fnv64 of
// the float32 bits> <first four values>", so a diff shows which
// scenario moved and roughly by how much.
func goldenLine(scenario string, vals []float32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
		h.Write(buf[:])
	}
	head := make([]string, 0, 4)
	for _, v := range vals[:min(4, len(vals))] {
		head = append(head, fmt.Sprintf("%.9g", v))
	}
	return fmt.Sprintf("%s %016x %s", scenario, h.Sum64(), strings.Join(head, " "))
}

// TestGoldenOutputs pins the outputs of the program's numeric paths
// across commits: fine-tuning (unbounded, bounded and resumed), one step
// of each engine, the pac-train command, serving on both backends, the
// decoders, and every product kernel. The
// equivalence tests elsewhere compare two paths of one binary and pass
// when both move together; this one compares against
// testdata/golden.txt. A change that edits a line names it and says
// why; a change that edits none has kept every listed output bit.
func TestGoldenOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fine-tuning, serving and decoding end to end")
	}
	got := map[string]string{}
	add := func(scenario string, vals []float32) {
		if _, dup := got[scenario]; dup {
			t.Fatalf("scenario %s computed twice", scenario)
		}
		got[scenario] = goldenLine(scenario, vals)
	}
	goldenFineTune(t, add)
	goldenSteps(t, add)
	goldenPacTrain(t, add)
	for _, backend := range []string{"generic", "int8"} {
		onBackend(t, backend, func() {
			goldenServe(t, "serve/classify/"+backend, model.Tiny(), add)
			goldenProducts(backend, add)
		})
	}
	// A Tiny four times as wide: every int8 projection is 32-channel
	// aligned with k a multiple of 4, so it runs on the VNNI panel tile
	// where the host has one, and the side network's [64,32] down
	// projection on the 32-column zmm tile.
	wide := model.Tiny()
	wide.Hidden, wide.FFDim = 64, 128
	onBackend(t, "int8", func() { goldenServe(t, "serve/classify/wide/int8", wide, add) })
	onBackend(t, "generic", func() { goldenDecode(t, add) })

	want := readGolden(t, filepath.Join("testdata", "golden.txt"))
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		switch line, ok := want[name]; {
		case !ok:
			t.Errorf("scenario %s has no line in testdata/golden.txt: add %q", name, got[name])
		case line != got[name]:
			t.Errorf("scenario %s moved:\n got  %s\n want %s\nif the change is meant, replace the line in testdata/golden.txt and name it in CHANGES.md", name, got[name], line)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("testdata/golden.txt: scenario %s is no longer computed: prune the line", name)
		}
	}
}

// readGolden maps each scenario of a golden file to its whole line; '#'
// starts a comment.
func readGolden(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		if _, dup := want[name]; dup {
			t.Errorf("%s: scenario %s listed twice", path, name)
		}
		want[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// onBackend runs fn under the named tensor backend and restores the
// previous one.
func onBackend(t *testing.T, name string, fn func()) {
	t.Helper()
	prev := tensor.ActiveBackend().Name()
	if err := tensor.SetBackend(name); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := tensor.SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

// goldenFineTune runs the PAC workflow at 2 stages × 2 lanes — one
// hybrid epoch, then cached epochs — with an unbounded cache, with one
// bounded to half of what the dataset needs, and crashed mid-way
// through the first cached epoch and resumed from its snapshot in a
// fresh Framework. The first value of each line is the final epoch's
// mean loss, the rest are the trained adapter weights.
func goldenFineTune(t *testing.T, add func(string, []float32)) {
	const batch, epochs, seed = 4, 4, 3
	ds := data.Generate(data.GenConfig{Task: data.MRPC, Size: 16, SeqLen: 8, Vocab: 64, Seed: 21})
	config := func(store acache.Store) core.Config {
		return core.Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
			Stages: 2, Lanes: 2, LR: 0.05, Adam: true, Cache: store}
	}
	outputs := func(f *core.Framework, loss float64) []float32 {
		return append([]float32{float32(loss)}, nn.FlattenParams(f.Reference().Trainable())...)
	}
	run := func(store acache.Store) (*core.Framework, []float32) {
		f := core.New(config(store))
		loss, err := f.FineTune(ds, batch, epochs, seed)
		if err != nil {
			t.Fatal(err)
		}
		return f, outputs(f, loss)
	}
	full, vals := run(acache.NewMemoryStore())
	add("finetune/unbounded", vals)
	bounded, vals := run(acache.NewBounded(acache.NewMemoryStore(), full.Cache().Bytes()/2))
	if bounded.Recomputed() == 0 {
		t.Fatal("bounded fine-tune recomputed nothing: the scenario does not reach the miss path")
	}
	add("finetune/bounded50", vals)

	// The crash cancels the run between two cached steps; only the store
	// and the snapshot survive into the fresh Framework.
	store := acache.NewMemoryStore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap *checkpoint.Snapshot
	cfg := config(store)
	cfg.SnapshotEvery = 1
	cfg.OnSnapshot = func(s *checkpoint.Snapshot) {
		if snap == nil && s.Epoch == 1 && s.Step == 2 {
			snap = s
			cancel()
		}
	}
	if _, err := core.New(cfg).FineTuneFromCtx(ctx, ds, batch, epochs, seed, core.Cursor{}); err == nil || snap == nil {
		t.Fatalf("the run was not crashed mid-way through the first cached epoch (err %v)", err)
	}
	resumed := core.New(config(store))
	if err := resumed.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	cur := core.Cursor{Epoch: snap.Epoch, Step: snap.Step}
	if _, err := resumed.SalvageCache(ds, batch, seed, cur); err != nil {
		t.Fatal(err)
	}
	loss, err := resumed.FineTuneFromCtx(context.Background(), ds, batch, epochs, seed, cur)
	if err != nil {
		t.Fatal(err)
	}
	add("finetune/resumed", outputs(resumed, loss))
}

// goldenSteps runs one StepCtx on each engine over Parallel Adapters
// with plain SGD: a 2-stage pipeline, a hybrid of two such lanes, and a
// 2-rank data-parallel group. Every side network attaches to one shared
// backbone, as core.New's do. The first value of each line is the step's
// loss, the rest are the updated adapter weights.
func goldenSteps(t *testing.T, add func(string, []float32)) {
	const lr = 0.05
	ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 8, SeqLen: 8, Vocab: 64, Seed: 11})
	b := data.BatchOf(ds.Examples)
	opts := peft.Options{Reduction: 4}
	step := func(scenario string, e interface {
		StepCtx(context.Context, *data.Batch) (float64, error)
	}, tech *peft.Parallel) {
		loss, err := e.StepCtx(context.Background(), b)
		if err != nil {
			t.Fatal(err)
		}
		add(scenario, append([]float32{float32(loss)}, nn.FlattenParams(tech.Trainable())...))
	}
	m := model.New(model.Tiny())
	pipeline := func(int) *parallel.PipelineEngine {
		return parallel.NewPipeline(m, peft.NewParallel(m, opts), 2, nil, 2, lr)
	}

	pp := pipeline(0)
	step("step/pipeline", pp, pp.Tech)
	h := parallel.NewHybrid(2, 2, 2, lr, pipeline)
	step("step/hybrid", h, h.Lanes[0].Tech)
	dp := parallel.NewDPGroup(2, func(int) (*peft.Parallel, train.Optimizer) {
		tech := peft.NewParallel(m, opts)
		return tech, train.NewSGD(tech.Trainable(), lr, 0, 0)
	})
	step("step/dp", dp, dp.Techs[0])
}

// goldenPacTrain runs the pac-train command the way a user does — a
// one-epoch pretrain, then a hybrid and a cached epoch at 2 stages × 2
// lanes — and pins the three numbers of its "after:" line.
func goldenPacTrain(t *testing.T, add func(string, []float32)) {
	out, err := exec.Command("go", "run", "./cmd/pac-train", "-task", "sst-2", "-samples", "16",
		"-epochs", "2", "-pretrain", "1", "-stages", "2", "-lanes", "2", "-batch", "8").CombinedOutput()
	if err != nil {
		t.Fatalf("pac-train: %v\n%s", err, out)
	}
	m := regexp.MustCompile(`after:\s+loss (\S+), metric (\S+) \(train loss (\S+)\)`).FindStringSubmatch(string(out))
	if m == nil {
		t.Fatalf("pac-train printed no after: line:\n%s", out)
	}
	var vals []float32
	for _, field := range m[1:] {
		v, err := strconv.ParseFloat(field, 32)
		if err != nil {
			t.Fatal(err)
		}
		vals = append(vals, float32(v))
	}
	add("pac-train/after", vals)
}

// goldenServe answers a classify request the way pac-serve does on the
// active backend (the int8 one quantizes the frozen backbone first) and
// pins the logits behind the answer.
func goldenServe(t *testing.T, scenario string, cfg model.Config, add func(string, []float32)) {
	m := model.New(cfg)
	tech := peft.NewParallel(m, peft.Options{Reduction: 2})
	if tensor.BackendQuantized() {
		m.QuantizeBackbone()
	}
	srv := serve.NewServer(tech, cfg)
	enc := [][]int{{17, 33, 21, 54, 9, 2, 0}, {5, 6, 7, 8, 60, 61, 62}, {1, 40, 3, 41, 5, 42, 7}}
	lens := []int{7, 5, 7}
	classes, err := srv.ClassifyFor(context.Background(), serve.AnonUser, enc, lens)
	if err != nil {
		t.Fatal(err)
	}
	res := tech.Forward(enc, [][]int{{0}, {0}, {0}}, lens, false)
	logits := append([]float32(nil), res.Logits.Value.Data...)
	res.Release(res.Logits)
	for i, c := range tensor.ArgMaxRows(tensor.FromSlice(logits, len(enc), cfg.NumClasses)) {
		if classes[i] != c {
			t.Fatalf("%s: served class %d for row %d, logits say %d", scenario, classes[i], i, c)
		}
	}
	add(scenario, logits)
}

// goldenDecode pins the decoders on a language-model Tiny: Decode runs
// through the Parallel Adapters side network, DecodeParallel through the
// same side network on the KV cache, DecodeIncremental through the bare
// backbone's KV cache. Tokens are recorded as float32 with -1 closing
// each row. The cached lines read Decode's: the same tokens, and step by
// step the rows of the full forward's logits for the same prefix.
func goldenDecode(t *testing.T, add func(string, []float32)) {
	cfg := model.Tiny()
	cfg.Vocab, cfg.NumClasses, cfg.LM = 24, 24, true
	m := model.New(cfg)
	tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
	enc := [][]int{{2, 3, 4, 5, 6, 7}, {8, 9, 10, 11, 12, 13}}
	lens := []int{6, 5}
	opts := generate.Options{MaxLen: 6}

	tokens := func(rows [][]int) []float32 {
		var out []float32
		for _, row := range rows {
			for _, tok := range row {
				out = append(out, float32(tok))
			}
			out = append(out, -1)
		}
		return out
	}
	add("generate/decode/tokens", tokens(generate.Decode(tech, enc, lens, opts)))
	res := tech.Forward(enc, [][]int{{generate.BOS, 7}, {generate.BOS, 7}}, lens, false)
	full := append([]float32(nil), res.Logits.Value.Data...)
	add("generate/decode/logits", full)
	res.Release(res.Logits)

	pa := tech.(*peft.Parallel)
	cached, err := generate.DecodeParallel(pa, enc, lens, opts)
	if err != nil {
		t.Fatal(err)
	}
	add("generate/cached/tokens", tokens(cached))
	c, err := generate.NewParallelDecoder(pa, enc, lens)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	steps := append([]float32(nil), c.Step([]int{generate.BOS, generate.BOS}).Data...)
	steps = append(steps, c.Step([]int{7, 7}).Data...)
	// Step s's row i is row 2i+s of the full forward over [BOS, 7].
	vocab := cfg.Vocab
	for s := 0; s < 2; s++ {
		for i := 0; i < 2; i++ {
			got, want := steps[(2*s+i)*vocab:][:vocab], full[(2*i+s)*vocab:][:vocab]
			for j := range got {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("cached step %d row %d logit %d: %v, full forward %v", s, i, j, got[j], want[j])
				}
			}
		}
	}
	add("generate/cached/logits", steps)

	inc, err := generate.DecodeIncremental(m, enc, lens, opts)
	if err != nil {
		t.Fatal(err)
	}
	add("generate/incremental/tokens", tokens(inc))
	d, err := generate.NewIncrementalDecoder(m, enc, lens)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	logits := append([]float32(nil), d.Step([]int{generate.BOS, generate.BOS}).Data...)
	add("generate/incremental/logits", append(logits, d.Step([]int{7, 7}).Data...))
}

// goldenProducts pins every product kernel at shapes that are not
// multiples of any unroll, with about a fifth of the A entries exactly
// zero.
func goldenProducts(backend string, add func(string, []float32)) {
	g := tensor.NewRNG(77)
	operand := func(zeros bool, shape ...int) *tensor.Tensor {
		x := g.Randn(1, shape...)
		for i := range x.Data {
			if zeros && g.Intn(5) == 0 {
				x.Data[i] = 0
			}
		}
		return x
	}
	var mm, tmm, mmt []float32
	for _, s := range [][3]int{{7, 13, 9}, {1, 5, 3}, {5, 64, 33}, {9, 257, 6}} {
		m, k, n := s[0], s[1], s[2]
		a, at := operand(true, m, k), operand(true, k, m)
		b, bt := operand(false, k, n), operand(false, n, k)
		mm = append(mm, tensor.MatMul(a, b).Data...)
		tmm = append(tmm, tensor.TMatMul(at, b).Data...)
		mmt = append(mmt, tensor.MatMulT(a, bt).Data...)
	}
	const batch, m, k, n = 3, 5, 11, 6
	a, at := operand(true, batch, m, k), operand(true, batch, k, m)
	b, bt := operand(false, batch, k, n), operand(false, batch, n, k)
	bmm := tensor.BatchMatMul(a, b).Data
	btmm := tensor.BatchTMatMul(at, b).Data
	bmmt := tensor.BatchMatMulTScaled(a, bt, 0.37).Data
	add("tensor/matmul/"+backend, mm)
	add("tensor/tmatmul/"+backend, tmm)
	add("tensor/matmult/"+backend, mmt)
	add("tensor/batchmatmul/"+backend, bmm)
	add("tensor/batchtmatmul/"+backend, btmm)
	add("tensor/batchmatmult_scaled/"+backend, bmmt)
}
