package data

import (
	"hash/fnv"
	"strings"

	"pac/internal/tensor"
)

// Batch is a mini-batch in the layout the model consumes.
type Batch struct {
	IDs     []int
	Enc     [][]int
	Dec     [][]int // decoder inputs: BOS alone, or BOS + the target prefix for a language model
	Lens    []int
	Labels  []int // one per row; a language-model batch has one per decoder position, row-major
	Targets []float32
}

// Size returns the number of samples in the batch.
func (b *Batch) Size() int { return len(b.Enc) }

// Slice returns samples [start, end) as a new batch sharing row slices.
func (b *Batch) Slice(start, end int) *Batch {
	per := 1
	if b.Size() > 0 {
		per = len(b.Labels) / b.Size()
	}
	return &Batch{
		IDs:     b.IDs[start:end],
		Enc:     b.Enc[start:end],
		Dec:     b.Dec[start:end],
		Lens:    b.Lens[start:end],
		Labels:  b.Labels[start*per : end*per],
		Targets: b.Targets[start:end],
	}
}

// Split divides the batch into n micro-batches of near-equal size
// (the first batches get the remainder). n is clamped to the batch size.
func (b *Batch) Split(n int) []*Batch {
	if n > b.Size() {
		n = b.Size()
	}
	if n <= 1 {
		return []*Batch{b}
	}
	out := make([]*Batch, 0, n)
	base := b.Size() / n
	rem := b.Size() % n
	start := 0
	for i := 0; i < n; i++ {
		sz := base
		if i < rem {
			sz++
		}
		out = append(out, b.Slice(start, start+sz))
		start += sz
	}
	return out
}

// BatchOf materializes a batch from a slice of examples.
func BatchOf(examples []Example) *Batch {
	b := &Batch{}
	for _, ex := range examples {
		b.IDs = append(b.IDs, ex.ID)
		b.Enc = append(b.Enc, ex.Enc)
		b.Dec = append(b.Dec, []int{0}) // BOS
		b.Lens = append(b.Lens, ex.Len)
		b.Labels = append(b.Labels, ex.Label)
		b.Targets = append(b.Targets, ex.Target)
	}
	return b
}

// Loader yields shuffled mini-batches over a dataset. A fixed seed and
// epoch number produce an identical order on every device — the property
// the distributed engines rely on to stay in sync without coordination.
type Loader struct {
	ds        *Dataset
	batchSize int
	seed      int64
}

// NewLoader returns a loader with the given mini-batch size.
func NewLoader(ds *Dataset, batchSize int, seed int64) *Loader {
	if batchSize < 1 {
		panic("data: batch size must be positive")
	}
	return &Loader{ds: ds, batchSize: batchSize, seed: seed}
}

// Epoch returns the mini-batches for the given epoch, shuffled
// deterministically from (seed, epoch).
func (l *Loader) Epoch(epoch int) []*Batch {
	rng := tensor.NewRNG(l.seed*1_000_003 + int64(epoch))
	perm := rng.Perm(l.ds.Len())
	var batches []*Batch
	for start := 0; start < len(perm); start += l.batchSize {
		end := start + l.batchSize
		if end > len(perm) {
			end = len(perm)
		}
		exs := make([]Example, 0, end-start)
		for _, idx := range perm[start:end] {
			exs = append(exs, l.ds.Examples[idx])
		}
		batches = append(batches, BatchOf(exs))
	}
	return batches
}

// Tokenize hashes whitespace-separated words into ids in
// [reserved, vocab). Used by example programs that feed real text; id 0
// is BOS, ids 1–16 are the synthetic signal range and are avoided.
func Tokenize(text string, vocab, seqLen int) ([]int, int) {
	const reserved = 17
	words := strings.Fields(strings.ToLower(text))
	ids := make([]int, seqLen)
	n := 0
	for _, w := range words {
		if n >= seqLen {
			break
		}
		h := fnv.New32a()
		_, _ = h.Write([]byte(w))
		ids[n] = reserved + int(h.Sum32()%uint32(vocab-reserved))
		n++
	}
	return ids, n
}
