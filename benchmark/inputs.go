package main

import (
	"encoding/json"
	"math/rand"

	"pac/internal/data"
	"pac/internal/model"
)

// Fixed for every workload, so that all numbers are taken on one shape.
const (
	batchSize = 16
	seqLen    = 32
	reduction = 4
	learnRate = 0.001
	users     = 16
)

// benchModel is the one model shape of the benchmark: the Bench256
// width of BENCH_tensor.json at twice its depth, so that a two-stage
// pipeline has real layers on each stage.
func benchModel() model.Config {
	return model.Config{Name: "Bench", Vocab: 256, Layers: 4, Heads: 4, Hidden: 256,
		FFDim: 1024, MaxSeq: 64, NumClasses: 2, Seed: 1}
}

// benchLM is benchModel with a language-model head, for generation.
func benchLM() model.Config {
	cfg := benchModel()
	cfg.LM = true
	cfg.NumClasses = cfg.Vocab
	return cfg
}

// cacheEntryBytes is the activation-cache footprint of one sample: one
// [seq, hidden] tap per encoder layer and one [1, hidden] tap per
// decoder layer (the classifier decodes a single BOS position), fp32.
func cacheEntryBytes(cfg model.Config, seq int) int64 {
	return int64(cfg.Layers) * int64(seq*cfg.Hidden+cfg.Hidden) * 4
}

// genDataset makes the SST-2-shaped fine-tuning set for a seed.
func genDataset(seed int64, samples int) *data.Dataset {
	return data.Generate(data.GenConfig{Task: data.SST2, Size: samples, SeqLen: seqLen,
		Vocab: benchModel().Vocab, Seed: seed})
}

// request is one pre-generated serving request. Body holds the JSON the
// client posts; generate workloads keep a second body for the
// first-token phase.
type request struct {
	User   int
	Tokens []int
	Body   []byte // POST body (max_len = long for generate)
	Body1  []byte // generate only: the same prompt with max_len 1
}

type wireRequest struct {
	Tokens [][]int `json:"tokens"`
	User   int     `json:"user"`
	MaxLen int     `json:"max_len,omitempty"`
}

func encodeBody(tokens []int, user, maxLen int) []byte {
	blob, err := json.Marshal(wireRequest{Tokens: [][]int{tokens}, User: user, MaxLen: maxLen})
	if err != nil {
		panic(err) // ints and slices of ints always marshal
	}
	return blob
}

// genRequests makes n batch-1 requests for a seed. Lengths cover
// [minLen, maxLen] evenly (every seed gets the same multiset of lengths,
// in its own order, so that a seed changes which tokens are sent but not
// how much work a pool is); tokens are uniform over the vocabulary above
// BOS/EOS, users round-robin. maxGen > 0 marks a generation pool.
func genRequests(seed int64, n, minLen, maxLen, vocab, maxGen int) []request {
	rng := rand.New(rand.NewSource(seed))
	lengths := make([]int, n)
	for i := range lengths {
		lengths[i] = minLen + i%(maxLen-minLen+1)
	}
	rng.Shuffle(n, func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
	out := make([]request, n)
	for i := range out {
		toks := make([]int, lengths[i])
		for p := range toks {
			toks[p] = 2 + rng.Intn(vocab-2)
		}
		r := request{User: i % users, Tokens: toks, Body: encodeBody(toks, i%users, maxGen)}
		if maxGen > 0 {
			r.Body1 = encodeBody(toks, i%users, 1)
		}
		out[i] = r
	}
	return out
}
