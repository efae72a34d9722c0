// Package generate adds sequence generation on top of the model and
// PEFT layers: teacher-forced language-model training, greedy and
// temperature sampling decoders, and synthetic sequence-to-sequence
// tasks. This is the personal-LLM-agent workload the paper motivates
// (Figure 1): the agent *generates* responses, and PAC fine-tunes the
// generator on user data.
//
// Conventions: token 0 is BOS, token 1 is EOS; a model used here must be
// built with Config.LM = true and NumClasses = Vocab.
package generate

import (
	"math"

	"pac/internal/autograd"
	"pac/internal/peft"
	"pac/internal/tensor"
	"pac/internal/train"
)

// Special tokens.
const (
	BOS = 0
	EOS = 1
)

// Seq2SeqExample is one (input sequence → target sequence) pair.
type Seq2SeqExample struct {
	ID     int
	Enc    []int
	Len    int
	Target []int // without BOS/EOS framing
}

// Seq2SeqDataset is a generation workload.
type Seq2SeqDataset struct {
	Examples []Seq2SeqExample
	Vocab    int
	SeqLen   int
	// TargetLen is the fixed target length (excluding BOS/EOS).
	TargetLen int
}

// Len returns the number of examples.
func (d *Seq2SeqDataset) Len() int { return len(d.Examples) }

// Split partitions into train/eval.
func (d *Seq2SeqDataset) Split(evalFrac float64) (tr, ev *Seq2SeqDataset) {
	n := len(d.Examples)
	ne := int(float64(n) * evalFrac)
	if ne < 1 && n > 1 {
		ne = 1
	}
	cut := n - ne
	a, b := *d, *d
	a.Examples = d.Examples[:cut]
	b.Examples = d.Examples[cut:]
	return &a, &b
}

// Task selects the synthetic transformation the decoder must learn.
type Task int

// Synthetic seq2seq tasks of increasing difficulty.
const (
	// Copy: emit the first TargetLen input tokens verbatim — tests
	// cross-attention routing.
	Copy Task = iota
	// Reverse: emit the first TargetLen input tokens in reverse order.
	Reverse
	// Increment: emit each of the first TargetLen tokens shifted by +1
	// in vocabulary space — tests per-token transformation.
	Increment
)

// GenSeq2Seq builds a synthetic generation dataset.
func GenSeq2Seq(task Task, size, seqLen, targetLen, vocab int, seed int64) *Seq2SeqDataset {
	if targetLen >= seqLen {
		panic("generate: target longer than input")
	}
	rng := tensor.NewRNG(seed)
	ds := &Seq2SeqDataset{Vocab: vocab, SeqLen: seqLen, TargetLen: targetLen}
	for i := 0; i < size; i++ {
		enc := make([]int, seqLen)
		for p := range enc {
			enc[p] = 2 + rng.Intn(vocab-3) // avoid BOS/EOS; keep +1 shift in range
		}
		target := make([]int, targetLen)
		switch task {
		case Copy:
			copy(target, enc[:targetLen])
		case Reverse:
			for j := 0; j < targetLen; j++ {
				target[j] = enc[targetLen-1-j]
			}
		case Increment:
			for j := 0; j < targetLen; j++ {
				target[j] = enc[j] + 1
				if target[j] >= vocab {
					target[j] = 2
				}
			}
		}
		ds.Examples = append(ds.Examples, Seq2SeqExample{ID: i, Enc: enc, Len: seqLen, Target: target})
	}
	return ds
}

// Batch is a teacher-forced generation batch: DecIn[i] = BOS + target
// minus its last token; Labels[i] = target + EOS, flattened row-major to
// match the [batch·decSeq, vocab] logits layout.
type Batch struct {
	IDs    []int
	Enc    [][]int
	Lens   []int
	DecIn  [][]int
	Labels []int // batch·decSeq entries
	DecSeq int
}

// BatchOf assembles a teacher-forced batch.
func BatchOf(examples []Seq2SeqExample) *Batch {
	b := &Batch{}
	for _, ex := range examples {
		decIn := append([]int{BOS}, ex.Target...)
		labels := append(append([]int{}, ex.Target...), EOS)
		b.IDs = append(b.IDs, ex.ID)
		b.Enc = append(b.Enc, ex.Enc)
		b.Lens = append(b.Lens, ex.Len)
		b.DecIn = append(b.DecIn, decIn)
		b.Labels = append(b.Labels, labels...)
		b.DecSeq = len(decIn)
	}
	return b
}

// Loader yields shuffled generation batches.
type Loader struct {
	ds        *Seq2SeqDataset
	batchSize int
	seed      int64
}

// NewLoader returns a loader over a seq2seq dataset.
func NewLoader(ds *Seq2SeqDataset, batchSize int, seed int64) *Loader {
	return &Loader{ds: ds, batchSize: batchSize, seed: seed}
}

// Epoch returns the epoch's batches in a deterministic shuffled order.
func (l *Loader) Epoch(epoch int) []*Batch {
	rng := tensor.NewRNG(l.seed*7919 + int64(epoch))
	perm := rng.Perm(l.ds.Len())
	var out []*Batch
	for start := 0; start < len(perm); start += l.batchSize {
		end := start + l.batchSize
		if end > len(perm) {
			end = len(perm)
		}
		exs := make([]Seq2SeqExample, 0, end-start)
		for _, idx := range perm[start:end] {
			exs = append(exs, l.ds.Examples[idx])
		}
		out = append(out, BatchOf(exs))
	}
	return out
}

// Trainer fine-tunes a technique on a generation task with teacher
// forcing.
type Trainer struct {
	Tech peft.Technique
	Opt  train.Optimizer
	Clip float32
}

// TrainBatch runs one optimization step and returns the mean token loss.
func (t *Trainer) TrainBatch(b *Batch) float64 {
	res := t.Tech.Forward(b.Enc, b.DecIn, b.Lens, true)
	loss := autograd.SoftmaxCrossEntropy(res.Logits, b.Labels)
	autograd.Backward(loss)
	if t.Clip > 0 {
		train.ClipGradNorm(t.Opt.Params(), t.Clip)
	}
	t.Opt.Step()
	v := float64(loss.Value.Data[0])
	res.Release(loss)
	return v
}

// TrainEpoch runs an epoch and returns the mean batch loss.
func (t *Trainer) TrainEpoch(l *Loader, epoch int) float64 {
	var total float64
	batches := l.Epoch(epoch)
	for _, b := range batches {
		total += t.TrainBatch(b)
	}
	if len(batches) == 0 {
		return 0
	}
	return total / float64(len(batches))
}

// Options control decoding.
type Options struct {
	MaxLen      int     // maximum generated tokens (excluding BOS)
	Temperature float64 // 0 = greedy; >0 samples from softmax(logits/T)
	Seed        int64   // sampling seed
}

// Decode generates token sequences for a batch of inputs with the
// technique's forward pass (so the same code path serves Full, LoRA,
// Adapters, and Parallel Adapters — the latter through its side
// network). Generation is autoregressive: the decoder re-runs with the
// growing prefix each step and stops per sequence at EOS.
func Decode(tech peft.Technique, enc [][]int, lens []int, opts Options) [][]int {
	if opts.MaxLen <= 0 {
		opts.MaxLen = 16
	}
	rng := tensor.NewRNG(opts.Seed)
	batch := len(enc)
	dec := make([][]int, batch)
	done := make([]bool, batch)
	for i := range dec {
		dec[i] = []int{BOS}
	}
	for step := 0; step < opts.MaxLen; step++ {
		res := tech.Forward(enc, dec, lens, false)
		decSeq := len(dec[0])
		vocab := res.Logits.Value.Dim(1)
		allDone := true
		for i := 0; i < batch; i++ {
			if done[i] {
				dec[i] = append(dec[i], EOS) // pad to keep rows rectangular
				continue
			}
			row := res.Logits.Value.Data[((i+1)*decSeq-1)*vocab : ((i+1)*decSeq)*vocab]
			next := pick(row, opts.Temperature, rng)
			dec[i] = append(dec[i], next)
			if next == EOS {
				done[i] = true
			} else {
				allDone = false
			}
		}
		// The step's tokens are picked: its graph, logits and taps go
		// back to the pool before the next step allocates.
		res.Release(res.Logits)
		if allDone {
			break
		}
	}
	// Strip BOS and anything from EOS on.
	out := make([][]int, batch)
	for i := range dec {
		seq := dec[i][1:]
		for j, tok := range seq {
			if tok == EOS {
				seq = seq[:j]
				break
			}
		}
		out[i] = seq
	}
	return out
}

// pick selects the next token from a logits row.
func pick(logits []float32, temperature float64, rng *tensor.RNG) int {
	if temperature <= 0 {
		best, bestIdx := logits[0], 0
		for i, v := range logits[1:] {
			if v > best {
				best, bestIdx = v, i+1
			}
		}
		return bestIdx
	}
	// Softmax with temperature, then sample.
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	probs := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		p := math.Exp(float64(v-maxv) / temperature)
		probs[i] = p
		sum += p
	}
	r := float64(rng.Float32()) * sum
	for i, p := range probs {
		r -= p
		if r <= 0 {
			return i
		}
	}
	return len(logits) - 1
}

// ExactMatch returns the fraction of predictions equal to their targets.
func ExactMatch(pred [][]int, targets [][]int) float64 {
	if len(pred) == 0 {
		return 0
	}
	hits := 0
	for i := range pred {
		if equalSeq(pred[i], targets[i]) {
			hits++
		}
	}
	return float64(hits) / float64(len(pred))
}

// TokenAccuracy returns the fraction of positions predicted correctly
// (over the shorter of prediction and target, penalizing length
// mismatches against the target length).
func TokenAccuracy(pred [][]int, targets [][]int) float64 {
	var correct, total float64
	for i := range pred {
		t := targets[i]
		p := pred[i]
		total += float64(len(t))
		for j := 0; j < len(t) && j < len(p); j++ {
			if p[j] == t[j] {
				correct++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return correct / total
}

func equalSeq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Eval decodes an evaluation set greedily and reports exact-match and
// token accuracy.
func Eval(tech peft.Technique, ds *Seq2SeqDataset, batchSize int) (exact, token float64) {
	var preds, targets [][]int
	for start := 0; start < ds.Len(); start += batchSize {
		end := start + batchSize
		if end > ds.Len() {
			end = ds.Len()
		}
		var enc [][]int
		var lens []int
		for _, ex := range ds.Examples[start:end] {
			enc = append(enc, ex.Enc)
			lens = append(lens, ex.Len)
			targets = append(targets, ex.Target)
		}
		preds = append(preds, Decode(tech, enc, lens, Options{MaxLen: ds.TargetLen + 2})...)
	}
	return ExactMatch(preds, targets), TokenAccuracy(preds, targets)
}
