package bench

import (
	"fmt"
	"math"

	"pac/internal/cluster"
	"pac/internal/core"
	"pac/internal/costmodel"
	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/planner"
)

// paper-standard workload parameters (§6.1).
const (
	paperBatch  = 16
	paperEncSeq = 128
	paperDecSeq = 2
	paperNanos  = 8
)

func paperCosts(cfg model.Config, kind peft.Kind) costmodel.Costs {
	return costmodel.Costs{Cfg: cfg, Kind: kind, Opts: peft.Options{},
		EncSeq: paperEncSeq, DecSeq: paperDecSeq}
}

func paperSpec(cfg model.Config, kind peft.Kind, engine core.Engine, devices int) core.SimSpec {
	return core.SimSpec{
		Model: cfg, Kind: kind, Engine: engine,
		Cluster: cluster.Nanos(devices),
		Batch:   paperBatch, EncSeq: paperEncSeq, DecSeq: paperDecSeq,
		UseCache: true,
	}
}

// Table1 reproduces the paper's Table 1: the memory-footprint breakdown
// of fine-tuning T5-Large (batch 16, seq 128) under each technique, with
// optimizer states folded into the activations column as in the paper.
func Table1() *Table {
	t := &Table{
		Title:  "Table 1 — memory footprint breakdown, T5-Large, bs=16, seq=128 (GiB)",
		Header: []string{"Technique", "Trainable", "Weights", "Activations", "Gradients", "Total"},
	}
	cfg := model.T5Large()
	row := func(name string, kind peft.Kind) {
		c := paperCosts(cfg, kind)
		mem := costmodel.StageMemory(c.Blocks(), paperBatch, 1)
		trainable := peft.TrainableParamCount(kind, cfg, peft.Options{})
		frac := float64(trainable) / float64(cfg.ParamCount()) * 100
		t.addRow(name,
			fmt.Sprintf("%dM (%.2f%%)", trainable/1e6, frac),
			gib(mem.Weights), gib(mem.PaperActivations()), gib(mem.Gradients), gib(mem.Total()))
	}
	row("Full", peft.Full)
	row("Adapters", peft.Adapters)
	row("LoRA", peft.LoRA)
	row("ParallelAdapters", peft.ParallelAdapters)
	inf := costmodel.InferenceMemory(paperCosts(cfg, peft.Full).Blocks(), paperBatch)
	t.addRow("Inference", "/", gib(inf.Weights), gib(inf.Activations), "/", gib(inf.Total()))
	t.Notes = append(t.Notes,
		"paper: Full 2.75/5.33/2.75/10.83, Adapters 2.80/4.04/0.05/6.89, LoRA 2.78/4.31/0.04/7.13, Inference 2.75")
	return t
}

// Figure3 reproduces the paper's Figure 3: forward-vs-backward FLOPs per
// technique (T5-Large, bs=16, seq=128).
func Figure3() *Table {
	t := &Table{
		Title:  "Figure 3 — FLOPs breakdown per mini-batch, T5-Large, bs=16, seq=128",
		Header: []string{"Technique", "Forward TFLOPs", "Backward TFLOPs", "Forward share"},
	}
	cfg := model.T5Large()
	for _, kind := range peft.AllKinds() {
		fwd, bwd := costmodel.FLOPsBreakdown(paperCosts(cfg, kind).Blocks())
		fwd *= paperBatch
		bwd *= paperBatch
		t.addRow(kind.String(),
			fmt.Sprintf("%.2f", fwd/1e12), fmt.Sprintf("%.2f", bwd/1e12),
			fmt.Sprintf("%.0f%%", fwd/(fwd+bwd)*100))
	}
	c := paperCosts(cfg, peft.ParallelAdapters)
	c.Cached = true
	fwd, bwd := costmodel.FLOPsBreakdown(c.Blocks())
	fwd *= paperBatch
	bwd *= paperBatch
	t.addRow("ParallelAdapters+cache",
		fmt.Sprintf("%.4f", fwd/1e12), fmt.Sprintf("%.4f", bwd/1e12),
		fmt.Sprintf("%.0f%%", fwd/(fwd+bwd)*100))
	t.Notes = append(t.Notes, "paper: forward ≈54% of total under Adapters/LoRA, ≈33% under Full")
	return t
}

// table2Cell is one simulated training-duration cell.
type table2Cell struct {
	Technique peft.Kind
	EngineN   core.Engine
	Model     string
	Task      data.Task
	Hours     float64
	OOM       bool
}

// table2Data computes every cell of the paper's Table 2.
func table2Data() []table2Cell {
	var out []table2Cell
	type method struct {
		kind peft.Kind
		eng  core.Engine
	}
	methods := []method{
		{peft.Full, core.Standalone}, {peft.Full, core.EcoFL}, {peft.Full, core.EDDL},
		{peft.Adapters, core.Standalone}, {peft.Adapters, core.EcoFL}, {peft.Adapters, core.EDDL},
		{peft.LoRA, core.Standalone}, {peft.LoRA, core.EcoFL}, {peft.LoRA, core.EDDL},
		{peft.ParallelAdapters, core.PAC},
	}
	for _, cfg := range model.PaperConfigs() {
		for _, m := range methods {
			for _, task := range data.AllTasks() {
				res := core.SimulateTask(paperSpec(cfg, m.kind, m.eng, paperNanos), task)
				out = append(out, table2Cell{
					Technique: m.kind, EngineN: m.eng, Model: cfg.Name, Task: task,
					Hours: res.Hours, OOM: res.OOM,
				})
			}
		}
	}
	return out
}

// Table2 renders the training-duration grid in the paper's layout.
func Table2() *Table {
	t := &Table{
		Title: "Table 2 — training durations (hours): 3 epochs MRPC/STS-B, 1 epoch SST-2/QNLI, 8× Jetson Nano",
		Header: []string{"Technique", "Method",
			"T5B:MRPC", "T5B:STS-B", "T5B:SST-2", "T5B:QNLI",
			"BART:MRPC", "BART:STS-B", "BART:SST-2", "BART:QNLI",
			"T5L:MRPC", "T5L:STS-B", "T5L:SST-2", "T5L:QNLI"},
	}
	cells := table2Data()
	idx := map[string]table2Cell{}
	for _, c := range cells {
		idx[fmt.Sprintf("%d|%d|%s|%d", c.Technique, c.EngineN, c.Model, c.Task)] = c
	}
	rows := []struct {
		kind peft.Kind
		eng  core.Engine
	}{
		{peft.Full, core.Standalone}, {peft.Full, core.EcoFL}, {peft.Full, core.EDDL},
		{peft.Adapters, core.Standalone}, {peft.Adapters, core.EcoFL}, {peft.Adapters, core.EDDL},
		{peft.LoRA, core.Standalone}, {peft.LoRA, core.EcoFL}, {peft.LoRA, core.EDDL},
		{peft.ParallelAdapters, core.PAC},
	}
	for _, r := range rows {
		cellsRow := []string{r.kind.String(), r.eng.String()}
		for _, cfg := range model.PaperConfigs() {
			for _, task := range data.AllTasks() {
				c := idx[fmt.Sprintf("%d|%d|%s|%d", r.kind, r.eng, cfg.Name, task)]
				cellsRow = append(cellsRow, fmtHours(c.Hours, c.OOM))
			}
		}
		t.addRow(cellsRow...)
	}
	t.Notes = append(t.Notes,
		"paper row PAC: 0.14 0.22 1.34 2.12 | 0.29 0.45 2.69 4.25 | 0.69 1.09 8.88 14.02")
	return t
}

// figure8Row is one technique's per-sample time and memory on the
// 8-device cluster.
type figure8Row struct {
	Name         string
	PerSampleSec float64
	Memory       costmodel.Memory
	OOM          bool
}

// figure8Data computes the per-technique comparison behind Figures 8a
// and 8b: hybrid parallelism for in-backbone techniques, data
// parallelism with activation cache for Parallel Adapters. The paper
// does not state the model; T5-Base (the only one every technique can
// host) is used.
func figure8Data() []figure8Row {
	cfg := model.T5Base()
	var out []figure8Row
	for _, kind := range []peft.Kind{peft.Full, peft.Adapters, peft.LoRA} {
		s := paperSpec(cfg, kind, core.PAC, paperNanos)
		s.UseCache = false
		s.Samples, s.Epochs = 1000, 1
		res := core.Simulate(s)
		out = append(out, figure8Row{
			Name:         kind.String(),
			PerSampleSec: core.PerSampleTrainSec(res, s),
			Memory:       res.PeakMemory,
			OOM:          res.OOM,
		})
	}
	// Parallel Adapters without cache: evaluated on the SAME hybrid plan
	// the planner picks for Adapters, so the memory comparison isolates
	// the technique (as in the paper) rather than the plan shape.
	adIn := planner.Input{Blocks: paperCosts(cfg, peft.Adapters).Blocks(),
		Cluster: cluster.Nanos(paperNanos), MiniBatch: paperBatch}
	adPlan, adErr := planner.New(adIn)
	paIn := planner.Input{Blocks: paperCosts(cfg, peft.ParallelAdapters).Blocks(),
		Cluster: cluster.Nanos(paperNanos), MiniBatch: paperBatch}
	if adErr == nil {
		if ev, ok := planner.Evaluate(adPlan, paIn); ok {
			var peak costmodel.Memory
			for _, m := range ev.PeakMemory {
				if m.Total() > peak.Total() {
					peak = m
				}
			}
			out = append(out, figure8Row{Name: "P.A.",
				PerSampleSec: ev.StepSec / float64(paperBatch), Memory: peak})
		} else {
			out = append(out, figure8Row{Name: "P.A.", OOM: true})
		}
	} else {
		out = append(out, figure8Row{Name: "P.A.", OOM: true})
	}

	sC := paperSpec(cfg, peft.ParallelAdapters, core.PAC, paperNanos)
	sC.Samples, sC.Epochs = 1000, 3
	resC := core.Simulate(sC)
	cachedCosts := paperCosts(cfg, peft.ParallelAdapters)
	cachedCosts.Cached = true
	perDev := int(math.Ceil(float64(paperBatch) / float64(paperNanos)))
	cachedMem := costmodel.StageMemory(cachedCosts.Blocks(), perDev, 1)
	out = append(out, figure8Row{Name: "P.A.+cache", PerSampleSec: core.PerSampleTrainSec(resC, sC),
		Memory: cachedMem, OOM: resC.OOM})
	return out
}

// Figure8 renders Figures 8a (average per-sample training time) and 8b
// (peak per-device memory breakdown).
func Figure8() *Table {
	t := &Table{
		Title: "Figure 8 — technique comparison on 8× Jetson Nano (T5-Base, bs=16, seq=128)",
		Header: []string{"Technique", "per-sample sec", "vs Full",
			"weights GiB", "act+opt GiB", "grads GiB", "total GiB", "mem vs Adapters"},
	}
	rows := figure8Data()
	var fullSec float64
	var adaptersMem int64
	for _, r := range rows {
		if r.Name == "Full" {
			fullSec = r.PerSampleSec
		}
		if r.Name == "Adapters" {
			adaptersMem = r.Memory.Total()
		}
	}
	for _, r := range rows {
		if r.OOM {
			t.addRow(r.Name, "OOM", "-", "-", "-", "-", "-", "-")
			continue
		}
		timeDelta := "-"
		if fullSec > 0 {
			timeDelta = fmt.Sprintf("%+.1f%%", (r.PerSampleSec/fullSec-1)*100)
		}
		memDelta := "-"
		if adaptersMem > 0 {
			memDelta = fmt.Sprintf("%+.1f%%", (float64(r.Memory.Total())/float64(adaptersMem)-1)*100)
		}
		t.addRow(r.Name,
			fmt.Sprintf("%.4f", r.PerSampleSec), timeDelta,
			gib(r.Memory.Weights), gib(r.Memory.PaperActivations()), gib(r.Memory.Gradients),
			gib(r.Memory.Total()), memDelta)
	}
	t.Notes = append(t.Notes,
		"paper: P.A. −31.94% time vs Full (−96.39% with cache); memory −25.27% vs PEFT (−74.57% with cache)")
	return t
}

// figure9Row is one (engine, model, devices) scaling point.
type figure9Row struct {
	EngineN    core.Engine
	Model      string
	Devices    int
	Throughput float64 // samples/sec (0 = OOM)
	WeightGiB  float64
	OOM        bool
}

// figure9Data sweeps 2–8 devices for PAC, Eco-FL and EDDL on Parallel
// Adapters (no cache), as in the paper's scalability study.
func figure9Data() []figure9Row {
	var out []figure9Row
	for _, cfg := range model.PaperConfigs() {
		for _, eng := range []core.Engine{core.PAC, core.EcoFL, core.EDDL} {
			for n := 2; n <= 8; n++ {
				s := paperSpec(cfg, peft.ParallelAdapters, eng, n)
				s.UseCache = false
				s.Samples, s.Epochs = 1000, 1
				// Deviation from the paper (which sets batch = device
				// count): a fixed batch of 16 avoids degenerate
				// single-sample micro-batching at small N and keeps the
				// throughput series comparable across device counts.
				res := core.Simulate(s)
				out = append(out, figure9Row{
					EngineN: eng, Model: cfg.Name, Devices: n,
					Throughput: res.Throughput,
					WeightGiB:  float64(res.WeightMemory) / (1 << 30),
					OOM:        res.OOM,
				})
			}
		}
	}
	return out
}

// Figure9 renders the throughput and weight-memory scaling series.
func Figure9() *Table {
	t := &Table{
		Title:  "Figure 9 — scalability, 2–8 Jetson Nanos, Parallel Adapters, batch 16",
		Header: []string{"Model", "Engine", "N=2", "N=3", "N=4", "N=5", "N=6", "N=7", "N=8", "weights@8 GiB"},
	}
	rows := figure9Data()
	series := map[string][]figure9Row{}
	for _, r := range rows {
		key := r.Model + "|" + r.EngineN.String()
		series[key] = append(series[key], r)
	}
	for _, cfg := range model.PaperConfigs() {
		for _, eng := range []core.Engine{core.PAC, core.EcoFL, core.EDDL} {
			key := cfg.Name + "|" + eng.String()
			cells := []string{cfg.Name, eng.String()}
			var w8 string = "-"
			for _, r := range series[key] {
				if r.OOM {
					cells = append(cells, "OOM")
				} else {
					cells = append(cells, fmt.Sprintf("%.2f", r.Throughput))
				}
				if r.Devices == 8 && !r.OOM {
					w8 = fmt.Sprintf("%.2f", r.WeightGiB)
				}
			}
			cells = append(cells, w8)
			t.addRow(cells...)
		}
	}
	t.Notes = append(t.Notes,
		"paper: PAC ≥ +39.5% throughput vs Eco-FL; EDDL OOMs on BART-Large and T5-Large")
	return t
}

// Figure10 renders the planner's device groupings per model and device
// count (the paper's Figure 10 table).
func Figure10() *Table {
	t := &Table{
		Title:  "Figure 10 — PAC hybrid-parallel device groupings (stage sizes)",
		Header: []string{"Model", "N=2", "N=3", "N=4", "N=5", "N=6", "N=7", "N=8"},
	}
	for _, cfg := range model.PaperConfigs() {
		cells := []string{cfg.Name}
		for n := 2; n <= 8; n++ {
			c := paperCosts(cfg, peft.ParallelAdapters)
			in := planner.Input{Blocks: c.Blocks(), Cluster: cluster.Nanos(n), MiniBatch: paperBatch}
			p, err := planner.New(in)
			if err != nil {
				cells = append(cells, "OOM")
				continue
			}
			gs := p.GroupSizes()
			s := ""
			for i, g := range gs {
				if i > 0 {
					s += "+"
				}
				s += fmt.Sprintf("%d", g)
			}
			cells = append(cells, s)
		}
		t.addRow(cells...)
	}
	t.Notes = append(t.Notes, "paper example: BART-Large at N=8 → 4+4 (two stages, four-way data parallel)")
	return t
}

// figure11Row is one device-count point of the cache-benefit study.
type figure11Row struct {
	Devices      int
	NoCacheHours float64
	CacheHours   float64
	SavedPct     float64
}

// figure11Data computes MRPC fine-tuning time with and without the
// activation cache across 2–8 devices (paper Figure 11).
func figure11Data() []figure11Row {
	var out []figure11Row
	for n := 2; n <= 8; n++ {
		s := paperSpec(model.T5Base(), peft.ParallelAdapters, core.PAC, n)
		withCache := core.SimulateTask(s, data.MRPC)
		s.UseCache = false
		noCache := core.SimulateTask(s, data.MRPC)
		if withCache.OOM || noCache.OOM {
			continue
		}
		out = append(out, figure11Row{
			Devices:      n,
			NoCacheHours: noCache.Hours,
			CacheHours:   withCache.Hours,
			SavedPct:     (1 - withCache.Hours/noCache.Hours) * 100,
		})
	}
	return out
}

// Figure11 renders the cache-benefit bars.
func Figure11() *Table {
	t := &Table{
		Title:  "Figure 11 — MRPC fine-tuning time with/without activation cache (T5-Base, 3 epochs)",
		Header: []string{"Devices", "no-cache hours", "cache hours", "saved"},
	}
	for _, r := range figure11Data() {
		t.addRow(fmt.Sprintf("%d", r.Devices),
			fmt.Sprintf("%.3f", r.NoCacheHours), fmt.Sprintf("%.3f", r.CacheHours),
			fmt.Sprintf("%.1f%%", r.SavedPct))
	}
	t.Notes = append(t.Notes, "paper: per-epoch latency reduction up to 79.51%; 71% over ten epochs")
	return t
}

// EpochSweep quantifies §6.4's claim that cache savings grow with epoch
// count: total hours for 1–10 epochs with and without the cache.
func EpochSweep() *Table {
	t := &Table{
		Title:  "§6.4 — cache benefit vs epoch count (T5-Base, MRPC-sized, 8 devices)",
		Header: []string{"Epochs", "no-cache hours", "cache hours", "saved"},
	}
	for _, epochs := range []int{1, 2, 3, 5, 10} {
		s := paperSpec(model.T5Base(), peft.ParallelAdapters, core.PAC, paperNanos)
		s.Samples = data.SpecFor(data.MRPC).TrainSize
		s.Epochs = epochs
		with := core.Simulate(s)
		s.UseCache = false
		without := core.Simulate(s)
		saved := (1 - with.Hours/without.Hours) * 100
		t.addRow(fmt.Sprintf("%d", epochs),
			fmt.Sprintf("%.3f", without.Hours), fmt.Sprintf("%.3f", with.Hours),
			fmt.Sprintf("%.1f%%", saved))
	}
	return t
}

// RedistributionAblation reports the phase-transition overhead (paper
// §5.2: ≈8% of training time for BART-Large on MRPC, 3 epochs).
func RedistributionAblation() *Table {
	t := &Table{
		Title:  "§5.2 — redistribution overhead (params + cache shards)",
		Header: []string{"Model", "redistribution sec", "total hours", "fraction"},
	}
	for _, cfg := range model.PaperConfigs() {
		res := core.SimulateTask(paperSpec(cfg, peft.ParallelAdapters, core.PAC, paperNanos), data.MRPC)
		if res.OOM {
			t.addRow(cfg.Name, "OOM", "-", "-")
			continue
		}
		t.addRow(cfg.Name,
			fmt.Sprintf("%.1f", res.RedistributionSec),
			fmt.Sprintf("%.3f", res.Hours),
			fmt.Sprintf("%.1f%%", res.RedistributionSec/(res.Hours*3600)*100))
	}
	t.Notes = append(t.Notes, "paper: ≈8% for BART-Large/MRPC/3 epochs")
	return t
}

// ScheduleAblation compares 1F1B against GPipe scheduling on the same
// hybrid plan — the design choice DESIGN.md calls out.
func ScheduleAblation() *Table {
	t := &Table{
		Title:  "Ablation — 1F1B vs GPipe scheduling (Eco-FL-style 8-stage pipeline, T5-Base adapters)",
		Header: []string{"Schedule", "step sec", "peak act GiB"},
	}
	c := paperCosts(model.T5Base(), peft.Adapters)
	in := planner.Input{Blocks: c.Blocks(), Cluster: cluster.Nanos(paperNanos), MiniBatch: paperBatch}
	p := planner.PipelineOnly(in)
	for _, gpipe := range []bool{false, true} {
		q := p
		q.GPipe = gpipe
		ev, ok := planner.Evaluate(q, in)
		name := "1F1B"
		if gpipe {
			name = "GPipe"
		}
		if !ok {
			t.addRow(name, "OOM", "-")
			continue
		}
		var peak int64
		for _, m := range ev.PeakMemory {
			if m.Activations > peak {
				peak = m.Activations
			}
		}
		t.addRow(name, fmt.Sprintf("%.3f", ev.StepSec), gib(peak))
	}
	t.Notes = append(t.Notes, "1F1B bounds in-flight activations to S−s; GPipe holds all micro-batches")
	return t
}

// ReductionSweep ablates the Parallel Adapters reduction factor k.
func ReductionSweep() *Table {
	t := &Table{
		Title:  "Ablation — Parallel Adapters reduction factor k (T5-Large)",
		Header: []string{"k", "trainable params M", "adapter AllReduce MB", "cached step sec"},
	}
	for _, k := range []int{4, 8, 16, 32} {
		opts := peft.Options{Reduction: k}
		s := paperSpec(model.T5Large(), peft.ParallelAdapters, core.PAC, paperNanos)
		s.Opts = opts
		s.Samples, s.Epochs = 1000, 3
		res := core.Simulate(s)
		trainable := peft.TrainableParamCount(peft.ParallelAdapters, model.T5Large(), opts)
		cell := "OOM"
		if !res.OOM {
			cell = fmt.Sprintf("%.3f", res.CachedStepSec)
		}
		t.addRow(fmt.Sprintf("%d", k),
			fmt.Sprintf("%.1f", float64(trainable)/1e6),
			fmt.Sprintf("%.1f", float64(trainable)*4/1e6),
			cell)
	}
	return t
}

// CacheCompressionAblation compares full-precision and half-precision
// activation caches: storage, redistribution time, and total job time
// (an extension beyond the paper, enabled by acache.F16Store).
func CacheCompressionAblation() *Table {
	t := &Table{
		Title:  "Ablation — fp32 vs fp16 activation cache (T5-Large, MRPC, 8 devices)",
		Header: []string{"Cache", "cache GB", "redistribution sec", "total hours"},
	}
	for _, f16 := range []bool{false, true} {
		s := paperSpec(model.T5Large(), peft.ParallelAdapters, core.PAC, paperNanos)
		s.CacheF16 = f16
		res := core.SimulateTask(s, data.MRPC)
		name := "fp32"
		if f16 {
			name = "fp16"
		}
		if res.OOM {
			t.addRow(name, "OOM", "-", "-")
			continue
		}
		t.addRow(name,
			fmt.Sprintf("%.1f", float64(res.CacheBytes)/1e9),
			fmt.Sprintf("%.1f", res.RedistributionSec),
			fmt.Sprintf("%.3f", res.Hours))
	}
	t.Notes = append(t.Notes, "fp16 halves cache storage and redistribution traffic; see acache.F16Store for the training-quality check")
	return t
}

// StragglerAblation quantifies replanning value when one device
// degrades (thermal throttling is routine on fanless edge hardware): the
// original plan executed on the degraded pool vs. a fresh plan from the
// planner that knows about the straggler.
func StragglerAblation() *Table {
	t := &Table{
		Title:  "Ablation — straggler replanning (BART-Large, 8 devices, one at 50% throughput)",
		Header: []string{"Scenario", "step sec", "throughput (samples/s)"},
	}
	costs := paperCosts(model.BARTLarge(), peft.ParallelAdapters)
	healthy := cluster.Nanos(paperNanos)
	degraded := cluster.Nanos(paperNanos)
	degraded.Devices[0].GFLOPS /= 2

	inHealthy := planner.Input{Blocks: costs.Blocks(), Cluster: healthy, MiniBatch: paperBatch}
	inDegraded := planner.Input{Blocks: costs.Blocks(), Cluster: degraded, MiniBatch: paperBatch}

	orig, err := planner.New(inHealthy)
	if err != nil {
		t.addRow("healthy plan", "OOM", "-")
		return t
	}
	t.addRow("healthy pool, original plan",
		fmt.Sprintf("%.3f", orig.StepSec), fmt.Sprintf("%.2f", orig.Throughput()))

	if ev, ok := planner.Evaluate(orig, inDegraded); ok {
		t.addRow("straggler, original plan",
			fmt.Sprintf("%.3f", ev.StepSec), fmt.Sprintf("%.2f", float64(paperBatch)/ev.StepSec))
	} else {
		t.addRow("straggler, original plan", "OOM", "-")
	}
	if replanned, err := planner.New(inDegraded); err == nil {
		t.addRow("straggler, replanned",
			fmt.Sprintf("%.3f", replanned.StepSec), fmt.Sprintf("%.2f", replanned.Throughput()))
	} else {
		t.addRow("straggler, replanned", "OOM", "-")
	}
	t.Notes = append(t.Notes,
		"proportional intra-group sharding already absorbs mild stragglers inside a group; replanning matters when the straggler anchors a single-device stage")
	return t
}
