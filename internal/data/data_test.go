package data

import (
	"testing"
	"testing/quick"
)

func genSmall(task Task, size int) *Dataset {
	return Generate(GenConfig{Task: task, Size: size, SeqLen: 16, Vocab: 64, Seed: 1})
}

func TestSpecsMatchPaper(t *testing.T) {
	// Paper §6.2: 3 epochs for MRPC and STS-B, 1 for SST-2 and QNLI;
	// GLUE train-split sizes.
	cases := map[Task]struct{ size, epochs int }{
		MRPC: {3668, 3},
		STSB: {5749, 3},
		SST2: {67349, 1},
		QNLI: {104743, 1},
	}
	for task, want := range cases {
		spec := SpecFor(task)
		if spec.TrainSize != want.size || spec.Epochs != want.epochs {
			t.Errorf("%s: spec %+v, want size %d epochs %d", task, spec, want.size, want.epochs)
		}
	}
	if !SpecFor(STSB).Regression || SpecFor(MRPC).Regression {
		t.Fatal("regression flags wrong")
	}
}

func TestGenerateShapeAndDeterminism(t *testing.T) {
	a := genSmall(MRPC, 50)
	b := genSmall(MRPC, 50)
	if a.Len() != 50 {
		t.Fatalf("size %d", a.Len())
	}
	for i := range a.Examples {
		ea, eb := a.Examples[i], b.Examples[i]
		if ea.Label != eb.Label || ea.Len != eb.Len {
			t.Fatal("generation not deterministic")
		}
		for j := range ea.Enc {
			if ea.Enc[j] != eb.Enc[j] {
				t.Fatal("token streams differ")
			}
		}
		if len(ea.Enc) != 16 {
			t.Fatal("wrong seq len")
		}
		if ea.Len < 2 || ea.Len > 16 {
			t.Fatalf("bad valid length %d", ea.Len)
		}
	}
}

func TestGenerateLabelBalance(t *testing.T) {
	ds := genSmall(SST2, 400)
	ones := 0
	for _, ex := range ds.Examples {
		if ex.Label == 1 {
			ones++
		}
	}
	if ones < 100 || ones > 300 {
		t.Fatalf("label balance off: %d/400 ones", ones)
	}
}

func TestGenerateLabelsRecoverable(t *testing.T) {
	// The label must be recoverable from the token statistics — a
	// majority vote over signal groups should get near-perfect accuracy,
	// proving the task is learnable.
	ds := genSmall(QNLI, 300)
	correct := 0
	for _, ex := range ds.Examples {
		a, b := 0, 0
		for p := 0; p < ex.Len; p++ {
			tok := ex.Enc[p]
			if tok >= 1 && tok <= 8 {
				a++
			} else if tok >= 9 && tok <= 16 {
				b++
			}
		}
		pred := 0
		if b > a {
			pred = 1
		}
		if pred == ex.Label {
			correct++
		}
	}
	if correct != len(ds.Examples) {
		t.Fatalf("only %d/%d labels recoverable", correct, len(ds.Examples))
	}
}

func TestRegressionTargetsInRange(t *testing.T) {
	ds := genSmall(STSB, 200)
	if !ds.Regression || ds.NumClasses != 1 {
		t.Fatal("STS-B should be regression")
	}
	for _, ex := range ds.Examples {
		if ex.Target < 0 || ex.Target > 1 {
			t.Fatalf("target %v out of range", ex.Target)
		}
	}
}

func TestSplitPartitions(t *testing.T) {
	ds := genSmall(MRPC, 100)
	train, eval := ds.Split(0.2)
	if train.Len() != 80 || eval.Len() != 20 {
		t.Fatalf("split %d/%d", train.Len(), eval.Len())
	}
}

func TestBatchOfAndSplit(t *testing.T) {
	ds := genSmall(MRPC, 10)
	b := BatchOf(ds.Examples)
	if b.Size() != 10 || len(b.Dec) != 10 || b.Dec[0][0] != 0 {
		t.Fatal("BatchOf malformed")
	}
	micro := b.Split(3)
	if len(micro) != 3 {
		t.Fatalf("micro count %d", len(micro))
	}
	total := 0
	sizes := []int{}
	for _, m := range micro {
		total += m.Size()
		sizes = append(sizes, m.Size())
	}
	if total != 10 {
		t.Fatalf("micro sizes %v lose samples", sizes)
	}
	if sizes[0] != 4 || sizes[1] != 3 || sizes[2] != 3 {
		t.Fatalf("unbalanced micro sizes %v", sizes)
	}
	// Split larger than batch clamps.
	if got := len(b.Split(100)); got != 10 {
		t.Fatalf("overshoot split gave %d", got)
	}
}

func TestPropBatchSplitPreservesOrder(t *testing.T) {
	f := func(sizeRaw, nRaw uint8) bool {
		size := int(sizeRaw%20) + 1
		n := int(nRaw%6) + 1
		ds := genSmall(MRPC, size)
		b := BatchOf(ds.Examples)
		var ids []int
		for _, m := range b.Split(n) {
			ids = append(ids, m.IDs...)
		}
		if len(ids) != size {
			return false
		}
		for i, id := range ids {
			if id != b.IDs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLoaderDeterministicShuffle(t *testing.T) {
	ds := genSmall(MRPC, 30)
	l1 := NewLoader(ds, 8, 5)
	l2 := NewLoader(ds, 8, 5)
	e1, e2 := l1.Epoch(2), l2.Epoch(2)
	if len(e1) != len(e2) || len(e1) != 4 {
		t.Fatalf("batch counts %d/%d", len(e1), len(e2))
	}
	for i := range e1 {
		for j := range e1[i].IDs {
			if e1[i].IDs[j] != e2[i].IDs[j] {
				t.Fatal("same (seed, epoch) shuffled differently")
			}
		}
	}
	// Different epochs shuffle differently.
	o1, o2 := l1.Epoch(0), l1.Epoch(1)
	same := true
	for i := range o1[0].IDs {
		if o1[0].IDs[i] != o2[0].IDs[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("epochs 0 and 1 produced identical order")
	}
}

func TestLoaderCoversAllSamplesOncePerEpoch(t *testing.T) {
	ds := genSmall(SST2, 25)
	l := NewLoader(ds, 4, 9)
	seen := map[int]int{}
	for _, b := range l.Epoch(0) {
		for _, id := range b.IDs {
			seen[id]++
		}
	}
	if len(seen) != 25 {
		t.Fatalf("epoch covered %d/25 samples", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("sample %d seen %d times", id, n)
		}
	}
}

func TestTokenizeDeterministicAndBounded(t *testing.T) {
	ids1, n1 := Tokenize("Turn on the living room lights", 256, 16)
	ids2, n2 := Tokenize("turn ON the Living Room lights", 256, 16)
	if n1 != 6 || n2 != 6 {
		t.Fatalf("lengths %d/%d", n1, n2)
	}
	for i := 0; i < n1; i++ {
		if ids1[i] != ids2[i] {
			t.Fatal("tokenizer case-sensitive")
		}
		if ids1[i] < 17 || ids1[i] >= 256 {
			t.Fatalf("token %d outside reserved range", ids1[i])
		}
	}
	// Truncation.
	long := "a b c d e f g h i j k l m n o p q r s t"
	_, n := Tokenize(long, 256, 8)
	if n != 8 {
		t.Fatalf("truncation gave %d", n)
	}
}

func TestTaskStrings(t *testing.T) {
	want := []string{"MRPC", "STS-B", "SST-2", "QNLI"}
	for i, task := range AllTasks() {
		if task.String() != want[i] {
			t.Fatalf("task %d = %q", i, task.String())
		}
	}
}
