package pac

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pac/internal/acache"
	"pac/internal/core"
	"pac/internal/data"
	"pac/internal/generate"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/serve"
	"pac/internal/tensor"
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
// across commits: fine-tuning (unbounded and bounded cache), serving on
// both backends, both decoders, and every product kernel. The
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
	for _, backend := range tensor.Backends() {
		onBackend(t, backend, func() {
			goldenServe(t, backend, add)
			goldenProducts(backend, add)
		})
	}
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
// hybrid epoch, then cached epochs — with an unbounded cache and with
// one bounded to half of what the dataset needs. The first value of
// each line is the final epoch's mean loss, the rest are the trained
// adapter weights.
func goldenFineTune(t *testing.T, add func(string, []float32)) {
	ds := data.Generate(data.GenConfig{Task: data.MRPC, Size: 16, SeqLen: 8, Vocab: 64, Seed: 21})
	run := func(store acache.Store) (*core.Framework, []float32) {
		f := core.New(core.Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
			Stages: 2, Lanes: 2, LR: 0.05, Adam: true, Cache: store})
		loss, err := f.FineTune(ds, 4, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		return f, append([]float32{float32(loss)}, nn.FlattenParams(f.Reference().Trainable())...)
	}
	full, vals := run(acache.NewMemoryStore())
	add("finetune/unbounded", vals)
	bounded, vals := run(acache.NewBounded(acache.NewMemoryStore(), full.Cache().Bytes()/2))
	if bounded.Recomputed() == 0 {
		t.Fatal("bounded fine-tune recomputed nothing: the scenario does not reach the miss path")
	}
	add("finetune/bounded50", vals)
}

// goldenServe answers a classify request the way pac-serve does on the
// given backend (the int8 one quantizes the frozen backbone first) and
// pins the logits behind the answer.
func goldenServe(t *testing.T, backend string, add func(string, []float32)) {
	cfg := model.Tiny()
	tech := peft.New(peft.ParallelAdapters, model.New(cfg), peft.Options{Reduction: 2})
	if tensor.BackendQuantized() {
		tech.(peft.BackboneQuantizer).QuantizeBackbone()
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
			t.Fatalf("%s: served class %d for row %d, logits say %d", backend, classes[i], i, c)
		}
	}
	add("serve/classify/"+backend, logits)
}

// goldenDecode pins both decoders on a language-model Tiny: Decode runs
// through the Parallel Adapters side network, DecodeIncremental through
// the bare backbone's KV cache. Tokens are recorded as float32 with -1
// closing each row.
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
	add("generate/decode/logits", append([]float32(nil), res.Logits.Value.Data...))
	res.Release(res.Logits)

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
