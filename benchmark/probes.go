package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"pac/internal/autograd"
	"pac/internal/checkpoint"
	"pac/internal/data"
	"pac/internal/generate"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/parallel"
	"pac/internal/peft"
	"pac/internal/tensor"
	"pac/internal/train"
)

// probeBudget stops a probe early: the layers' medians are diagnostics,
// and the traced run has to end inside the driver's time limit.
const probeBudget = 400 * time.Millisecond

// probe calls fn up to sc.probeIters times (three of them whatever they
// cost, the rest until probeBudget is spent) and stores the median of
// each duration fn returns, in milliseconds, under the matching name. fn times only the
// layer call itself; building inputs and releasing outputs stay outside.
func (b *bench) probe(names []string, note string, fn func() []time.Duration) {
	samples := make([][]float64, len(names))
	start := time.Now()
	n := 0
	for ; n < b.sc.probeIters && (n < 3 || time.Since(start) < probeBudget); n++ {
		for i, d := range fn() {
			samples[i] = append(samples[i], d.Seconds()*1e3)
		}
	}
	for i, name := range names {
		b.layer[name] = median(samples[i])
		fmt.Printf("probe %-34s %10.4f ms  median of %d  %s\n", name, b.layer[name], n, note)
	}
}

func one(d time.Duration) []time.Duration { return []time.Duration{d} }

func timed(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// shapeNote gives a kernel's work as computed from its shapes, not
// measured: floating-point operations and the fp32 bytes of its inputs
// and outputs.
func shapeNote(shape string, flops, elems float64) string {
	return fmt.Sprintf("%s: %.3g flop, %.3g bytes moved (both computed from the shapes)", shape, flops, 4*elems)
}

// kernelProbes times the tensor kernels at the shapes the Bench model
// gives them for a batch of 16 sequences of 32 tokens.
func (b *bench) kernelProbes(quant bool) {
	cfg := benchModel()
	rng := tensor.NewRNG(b.opt.seed)
	rows, h, ff := batchSize*seqLen, cfg.Hidden, cfg.FFDim
	dh := h / cfg.Heads
	act := rng.Randn(1, rows, h)
	act1 := rng.Randn(1, seqLen, h)
	wUp := rng.Randn(0.05, h, ff)
	wUpT := rng.Randn(0.05, ff, h)
	wide := rng.Randn(1, rows, ff)
	q := rng.Randn(1, batchSize*cfg.Heads, seqLen, dh)
	k := rng.Randn(1, batchSize*cfg.Heads, seqLen, dh)
	scores := rng.Randn(1, batchSize*cfg.Heads*seqLen, seqLen)
	gamma, beta := tensor.Ones(h), tensor.New(h)
	dst := tensor.New(rows, ff)

	if quant {
		qw := tensor.QuantizeWeight(wUp)
		out := tensor.New(seqLen, ff)
		b.probe([]string{"tensor.quant_matmul_ms"},
			shapeNote("[32,256]·int8[256,1024]", 2*float64(seqLen*h*ff), float64(seqLen*h+seqLen*ff)+float64(h*ff)/4),
			func() []time.Duration { return one(timed(func() { tensor.QuantMatMulInto(out, act1, qw) })) })
		return
	}
	mm := func(m, kk, n int) (float64, float64) {
		return 2 * float64(m) * float64(kk) * float64(n), float64(m*kk + kk*n + m*n)
	}
	f, e := mm(rows, h, ff)
	b.probe([]string{"tensor.matmul_ms"}, shapeNote("[512,256]·[256,1024]", f, e),
		func() []time.Duration { return one(timed(func() { tensor.MatMulInto(dst, act, wUp) })) })
	f1, e1 := mm(seqLen, h, ff)
	dst1 := tensor.New(seqLen, ff)
	b.probe([]string{"tensor.matmul_b1_ms"}, shapeNote("[32,256]·[256,1024]", f1, e1),
		func() []time.Duration { return one(timed(func() { tensor.MatMulInto(dst1, act1, wUp) })) })
	b.probe([]string{"tensor.matmult_ms"}, shapeNote("[512,256]·[1024,256]ᵀ", f, e),
		func() []time.Duration { return one(timed(func() { tensor.MatMulT(act, wUpT) })) })
	fa := 2 * float64(batchSize*cfg.Heads) * float64(seqLen*seqLen*dh)
	ea := float64(2*q.Numel() + batchSize*cfg.Heads*seqLen*seqLen)
	b.probe([]string{"tensor.batch_matmult_scaled_ms"}, shapeNote("64×[32,64]·[32,64]ᵀ", fa, ea),
		func() []time.Duration {
			return one(timed(func() { tensor.BatchMatMulTScaled(q, k, float32(1/math.Sqrt(float64(dh)))) }))
		})
	b.probe([]string{"tensor.softmax_ms"}, shapeNote("[2048,32] rows", 5*float64(scores.Numel()), 2*float64(scores.Numel())),
		func() []time.Duration { return one(timed(func() { tensor.Softmax(scores) })) })
	b.probe([]string{"tensor.gelu_ms"}, shapeNote("[512,1024]", 10*float64(wide.Numel()), 2*float64(wide.Numel())),
		func() []time.Duration { return one(timed(func() { tensor.GELUInto(dst, wide) })) })
	b.probe([]string{"tensor.layernorm_ms"}, shapeNote("[512,256]", 8*float64(act.Numel()), 2*float64(act.Numel())),
		func() []time.Duration { return one(timed(func() { tensor.LayerNormForward(act, gamma, beta, 1e-5) })) })
}

// forwardProbes times the bare backbone forward at batch 16 and batch 1.
func (b *bench) forwardProbes(m *model.Model, full, single *data.Batch) {
	run := func(bt *data.Batch) func() []time.Duration {
		return func() []time.Duration {
			var s *model.State
			d := timed(func() { s = m.Forward(bt.Enc, bt.Dec, bt.Lens, false) })
			autograd.Release(s.Logits, s.Enc, s.Dec)
			return one(d)
		}
	}
	if full != nil {
		b.probe([]string{"model.forward_ms"}, "backbone forward, batch 16 × seq 32", run(full))
	}
	b.probe([]string{"model.forward_b1_ms"}, "backbone forward, batch 1", run(single))
}

func (w *finetune) probes() {
	b := w.b
	cfg := benchModel()
	batches := data.NewLoader(w.ds, batchSize, b.opt.seed).Epoch(0)
	full := batches[0]
	single := full.Slice(0, 1)

	var m *model.Model
	b.probe([]string{"model.new_s"}, "model.New(Bench); this one metric is in seconds, not ms",
		func() []time.Duration { return one(timed(func() { m = model.New(cfg) })) })
	b.layer["model.new_s"] /= 1e3
	tech := peft.NewParallel(m, peft.Options{Reduction: reduction})
	b.forwardProbes(m, full, single)

	var res *peft.Result
	b.probe([]string{"peft.forward_ms"}, "backbone + side network, batch 16", func() []time.Duration {
		if res != nil {
			autograd.Release(res.Logits)
			for _, t := range res.Taps {
				tensor.PutTensor(t)
			}
		}
		return one(timed(func() { res = tech.Forward(full.Enc, full.Dec, full.Lens, false) }))
	})
	autograd.Release(res.Logits)
	taps := res.Taps // kept: the side-network probes read them as the cache would supply them
	opt := train.NewAdam(tech.Trainable(), learnRate)
	b.probe([]string{"peft.side_forward_ms", "autograd.backward_ms", "train.clip_ms", "train.adam_step_ms", "autograd.release_ms"},
		"one cached-epoch step taken apart, batch 16", func() []time.Duration {
			var logits, loss *autograd.Variable
			fwd := timed(func() { logits = tech.ForwardFromTaps(taps) })
			loss = train.Loss(logits, full, false)
			bwd := timed(func() { autograd.Backward(loss) })
			clip := timed(func() { train.ClipGradNorm(opt.Params(), 1) })
			step := timed(opt.Step)
			rel := timed(func() { autograd.Release(loss) })
			return []time.Duration{fwd, bwd, clip, step, rel}
		})

	ref := w.f.Reference()
	refOpt := train.NewAdam(ref.Trainable(), learnRate)
	i := 0
	b.probe([]string{"core.steady_step_ms"}, "core.SteadyStep on the window's cache, batch 16", func() []time.Duration {
		mb := batches[i%len(batches)]
		i++
		return one(timed(func() { w.f.SteadyStep(ref, refOpt, mb) }))
	})

	vec := len(nn.FlattenParams(tech.Trainable()))
	eps := parallel.NewChanNetwork(2).Endpoints()
	bufs := [2][]float32{make([]float32, vec), make([]float32, vec)}
	b.probe([]string{"parallel.allreduce_ms"}, fmt.Sprintf("RingAllReduce of the %d adapter floats, 2 ranks, ChanNetwork", vec),
		func() []time.Duration {
			return one(timed(func() {
				var wg sync.WaitGroup
				for r := range eps {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						parallel.RingAllReduce(eps[r], bufs[r])
					}(r)
				}
				wg.Wait()
			}))
		})
	b.kernelProbes(false)
}

func (w *serveWL) probes() {
	b := w.b
	ctx := context.Background()
	n := len(w.pool)
	if w.gen && n > 5 {
		n = 5 // a generation is a quarter of a second
	}
	i := 0
	b.probe([]string{"serve.direct_p50_ms", "serve.handler_p50_ms"}, "the same inputs, one client, server called directly and through the handler",
		func() []time.Duration {
			r := w.pool[i%n]
			i++
			var direct time.Duration
			if w.gen {
				direct = timed(func() {
					_, _ = w.srv.GenerateFor(ctx, r.User, [][]int{r.Tokens}, []int{len(r.Tokens)}, generate.Options{MaxLen: genMaxLen})
				})
			} else {
				direct = timed(func() { _, _ = w.srv.ClassifyFor(ctx, r.User, [][]int{r.Tokens}, []int{len(r.Tokens)}) })
			}
			rr, handler := w.post(w.path, r.Body, "")
			if rr.Code != http.StatusOK {
				b.fail("probe request: status %d", rr.Code)
			}
			return []time.Duration{direct, handler}
		})
	b.layer["serve.http_overhead_ms"] = b.layer["serve.handler_p50_ms"] - b.layer["serve.direct_p50_ms"]

	single := data.BatchOf([]data.Example{{Enc: w.pool[0].Tokens, Len: len(w.pool[0].Tokens)}})
	b.forwardProbes(w.m, nil, single)
	if !w.gen {
		b.probe([]string{"checkpoint.load_ms"}, "checkpoint.Load of adapter set A into the served technique", func() []time.Duration {
			return one(timed(func() {
				if _, err := checkpoint.Load(w.ckpt[0], w.tech, w.cfg); err != nil {
					b.fail("checkpoint load: %v", err)
				}
			}))
		})
		b.kernelProbes(true)
		return
	}

	var tokens, incTokens int
	var decodeMs, incMs float64
	b.probe([]string{"generate.decode_p50_ms"}, "generate.Decode on the served technique, max_len 8", func() []time.Duration {
		r := w.pool[i%n]
		i++
		var out [][]int
		d := timed(func() {
			out = generate.Decode(w.tech, [][]int{r.Tokens}, []int{len(r.Tokens)}, generate.Options{MaxLen: genMaxLen})
		})
		tokens += len(out[0])
		decodeMs += d.Seconds() * 1e3
		return one(d)
	})
	b.layer["generate.per_token_ms"] = decodeMs / math.Max(1, float64(tokens))
	b.probe([]string{"generate.incremental_per_token_ms"}, "generate.DecodeIncremental on the bare backbone (ms per request here, divided below)", func() []time.Duration {
		r := w.pool[i%n]
		i++
		var out [][]int
		d := timed(func() {
			var err error
			if out, err = generate.DecodeIncremental(w.m, [][]int{r.Tokens}, []int{len(r.Tokens)}, generate.Options{MaxLen: genMaxLen}); err != nil {
				b.fail("incremental decode: %v", err)
			}
		})
		if len(out) == 1 {
			incTokens += len(out[0])
		}
		incMs += d.Seconds() * 1e3
		return one(d)
	})
	b.layer["generate.incremental_per_token_ms"] = incMs / math.Max(1, float64(incTokens))
	b.kernelProbes(false)
}
