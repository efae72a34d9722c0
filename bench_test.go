// Benchmarks regenerating every table and figure of the paper's
// evaluation (one testing.B target per exhibit). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the exhibit's headline quantity as a custom
// metric so `bench_output.txt` doubles as the reproduction record; the
// rendered tables themselves come from `go run ./cmd/pac-bench`.
package pac

import (
	"testing"

	"pac/internal/bench"
	"pac/internal/cluster"
	"pac/internal/core"
	"pac/internal/costmodel"
	"pac/internal/data"
	"pac/internal/federated"
	"pac/internal/generate"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/planner"
)

// BenchmarkTable1MemoryBreakdown regenerates paper Table 1 (memory
// footprint by technique, T5-Large) and reports the full-fine-tuning
// total in GiB.
func BenchmarkTable1MemoryBreakdown(b *testing.B) {
	var total int64
	for i := 0; i < b.N; i++ {
		c := costmodel.Costs{Cfg: model.T5Large(), Kind: peft.Full, EncSeq: 128, DecSeq: 2}
		total = costmodel.StageMemory(c.Blocks(), 16, 1).Total()
	}
	b.ReportMetric(float64(total)/(1<<30), "full-total-GiB")
}

// BenchmarkFigure3FLOPs regenerates paper Figure 3 and reports the
// forward share of total FLOPs under Adapters (paper: ≈54%).
func BenchmarkFigure3FLOPs(b *testing.B) {
	var share float64
	for i := 0; i < b.N; i++ {
		c := costmodel.Costs{Cfg: model.T5Large(), Kind: peft.Adapters, EncSeq: 128, DecSeq: 2}
		fwd, bwd := costmodel.FLOPsBreakdown(c.Blocks())
		share = fwd / (fwd + bwd) * 100
	}
	b.ReportMetric(share, "adapters-fwd-%")
}

// BenchmarkTable2TrainingDurations regenerates the full Table 2 grid and
// reports PAC's speedup over the best feasible baseline on T5-Base/MRPC.
func BenchmarkTable2TrainingDurations(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		cells := bench.Table2Data()
		best, pac := 1e18, 0.0
		for _, c := range cells {
			if c.Model != "T5-Base" || c.Task != data.MRPC || c.OOM {
				continue
			}
			if c.Technique == peft.ParallelAdapters {
				pac = c.Hours
			} else if c.Hours < best {
				best = c.Hours
			}
		}
		speedup = best / pac
	}
	b.ReportMetric(speedup, "pac-speedup-x")
}

// BenchmarkTable3Quality regenerates the quality-parity experiment (real
// training) and reports Parallel Adapters' worst deviation from the
// baseline mean (paper: −0.37 worst case).
func BenchmarkTable3Quality(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		cells := bench.Table3Data(bench.QualityConfig{Samples: 192, Epochs: 5})
		byTech := map[peft.Kind]map[data.Task]float64{}
		for _, c := range cells {
			if byTech[c.Technique] == nil {
				byTech[c.Technique] = map[data.Task]float64{}
			}
			byTech[c.Technique][c.Task] = c.Metric
		}
		worst = 0
		for _, task := range data.AllTasks() {
			mean := (byTech[peft.Full][task] + byTech[peft.Adapters][task] + byTech[peft.LoRA][task]) / 3
			if d := byTech[peft.ParallelAdapters][task] - mean; d < worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst, "pa-worst-delta-pts")
}

// BenchmarkFigure8aSampleTime regenerates Figure 8a and reports the
// cached Parallel Adapters per-sample time reduction vs full
// fine-tuning (paper: 96.39%).
func BenchmarkFigure8aSampleTime(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		rows := bench.Figure8Data()
		var full, cached float64
		for _, r := range rows {
			switch r.Name {
			case "Full":
				full = r.PerSampleSec
			case "P.A.+cache":
				cached = r.PerSampleSec
			}
		}
		reduction = (1 - cached/full) * 100
	}
	b.ReportMetric(reduction, "cached-time-reduction-%")
}

// BenchmarkFigure8bMemory regenerates Figure 8b and reports the cached
// Parallel Adapters memory reduction vs Adapters (paper: 74.57%).
func BenchmarkFigure8bMemory(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		rows := bench.Figure8Data()
		var adapters, cached int64
		for _, r := range rows {
			switch r.Name {
			case "Adapters":
				adapters = r.Memory.Total()
			case "P.A.+cache":
				cached = r.Memory.Total()
			}
		}
		reduction = (1 - float64(cached)/float64(adapters)) * 100
	}
	b.ReportMetric(reduction, "cached-mem-reduction-%")
}

// BenchmarkFigure9aScaling regenerates Figure 9a and reports PAC's
// throughput gain over Eco-FL on T5-Base at 8 devices (paper: ≥39.5%).
func BenchmarkFigure9aScaling(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		rows := bench.Figure9Data()
		var pacTp, eco float64
		for _, r := range rows {
			if r.Model == "T5-Base" && r.Devices == 8 && !r.OOM {
				switch r.EngineN {
				case core.PAC:
					pacTp = r.Throughput
				case core.EcoFL:
					eco = r.Throughput
				}
			}
		}
		gain = (pacTp/eco - 1) * 100
	}
	b.ReportMetric(gain, "pac-vs-ecofl-%")
}

// BenchmarkFigure9bWeights regenerates Figure 9b and reports PAC's
// per-device weight memory for T5-Large at 8 devices.
func BenchmarkFigure9bWeights(b *testing.B) {
	var w float64
	for i := 0; i < b.N; i++ {
		rows := bench.Figure9Data()
		for _, r := range rows {
			if r.Model == "T5-Large" && r.Devices == 8 && r.EngineN == core.PAC && !r.OOM {
				w = r.WeightGiB
			}
		}
	}
	b.ReportMetric(w, "t5large-weights-GiB")
}

// BenchmarkFigure10Grouping regenerates the device-grouping table and
// reports the stage count PAC picks for BART-Large at 8 devices
// (paper: 2 stages of 4).
func BenchmarkFigure10Grouping(b *testing.B) {
	var stages int
	for i := 0; i < b.N; i++ {
		c := costmodel.Costs{Cfg: model.BARTLarge(), Kind: peft.ParallelAdapters, EncSeq: 128, DecSeq: 2}
		in := planner.Input{Blocks: c.Blocks(), Cluster: cluster.Nanos(8), MiniBatch: 16}
		p, err := planner.New(in)
		if err != nil {
			b.Fatal(err)
		}
		stages = len(p.Stages)
	}
	b.ReportMetric(float64(stages), "bart-stages")
}

// BenchmarkFigure11Cache regenerates Figure 11 and reports the cache's
// total-time saving at 8 devices on MRPC (paper: up to 79.51% per epoch).
func BenchmarkFigure11Cache(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		for _, r := range bench.Figure11Data() {
			if r.Devices == 8 {
				saved = r.SavedPct
			}
		}
	}
	b.ReportMetric(saved, "cache-saving-%")
}

// BenchmarkPlannerLatency measures the planning time for T5-Large on 8
// devices (paper §5.1: under three seconds on an edge device).
func BenchmarkPlannerLatency(b *testing.B) {
	c := costmodel.Costs{Cfg: model.T5Large(), Kind: peft.ParallelAdapters, EncSeq: 128, DecSeq: 2}
	in := planner.Input{Blocks: c.Blocks(), Cluster: cluster.Nanos(8), MiniBatch: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := planner.New(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRedistributionAblation reports the redistribution fraction of
// total training time for BART-Large/MRPC (paper §5.2: ≈8%).
func BenchmarkRedistributionAblation(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		res := core.SimulateTask(core.SimSpec{
			Model: model.BARTLarge(), Kind: peft.ParallelAdapters, Engine: core.PAC,
			Cluster: cluster.Nanos(8), Batch: 16, EncSeq: 128, DecSeq: 2, UseCache: true,
		}, data.MRPC)
		frac = res.RedistributionSec / (res.Hours * 3600) * 100
	}
	b.ReportMetric(frac, "redistribution-%")
}

// BenchmarkRealPACFineTune exercises the real framework end to end (tiny
// model, 2×2 devices, 3 epochs with cache) — the live counterpart of the
// simulated exhibits.
func BenchmarkRealPACFineTune(b *testing.B) {
	ds := data.Generate(data.GenConfig{Task: data.MRPC, Size: 16, SeqLen: 8, Vocab: 64, Seed: 5})
	for i := 0; i < b.N; i++ {
		f := core.New(core.Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
			Stages: 2, Lanes: 2, LR: 0.02})
		if _, err := f.FineTune(ds, 8, 3, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerationDecode measures autoregressive decoding through a
// Parallel Adapters replica (the agent's response path).
func BenchmarkGenerationDecode(b *testing.B) {
	cfg := model.Tiny()
	cfg.Vocab, cfg.NumClasses, cfg.LM = 24, 24, true
	m := model.New(cfg)
	tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
	enc := [][]int{{2, 3, 4, 5, 6, 7, 8, 9}}
	lens := []int{8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		generate.Decode(tech, enc, lens, generate.Options{MaxLen: 6})
	}
}

// BenchmarkFederatedRound measures one full federated round (each home
// running the complete PAC workflow locally, then adapter averaging).
func BenchmarkFederatedRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var homes []*federated.Home
		for h := 0; h < 2; h++ {
			ds := data.Generate(data.GenConfig{Task: data.SST2, Size: 16, SeqLen: 8, Vocab: 64, Seed: int64(h)})
			f := core.New(core.Config{Model: model.Tiny(), Opts: peft.Options{Reduction: 4},
				Stages: 2, Lanes: 1, LR: 0.02})
			homes = append(homes, &federated.Home{Name: "h", F: f, Data: ds, Batch: 8})
		}
		c, err := federated.NewCoalition(homes)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Round(2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheCompressionAblation reports the fp16 cache's total-time
// saving on T5-Large/MRPC.
func BenchmarkCacheCompressionAblation(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		s := core.SimSpec{Model: model.T5Large(), Kind: peft.ParallelAdapters, Engine: core.PAC,
			Cluster: cluster.Nanos(8), Batch: 16, EncSeq: 128, DecSeq: 2, UseCache: true}
		fp32 := core.SimulateTask(s, data.MRPC)
		s.CacheF16 = true
		fp16 := core.SimulateTask(s, data.MRPC)
		saved = (1 - fp16.Hours/fp32.Hours) * 100
	}
	b.ReportMetric(saved, "fp16-saving-%")
}
