package bench

import (
	"fmt"

	"pac/internal/data"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/train"
)

// QualityConfig scales the Table 3 convergence experiment. The paper
// fine-tunes 0.25–0.74 B models on GLUE; we train the Tiny config on
// synthetic tasks with the same task types, comparing the four
// techniques on equal footing.
type QualityConfig struct {
	Samples int // per task; 0 = 320
	SeqLen  int // 0 = 16
	Epochs  int // 0 = 8
	Seed    int64
}

func (c QualityConfig) withDefaults() QualityConfig {
	if c.Samples == 0 {
		c.Samples = 320
	}
	if c.SeqLen == 0 {
		c.SeqLen = 16
	}
	if c.Epochs == 0 {
		c.Epochs = 8
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// qualityCell is one (technique, task) final-quality measurement.
type qualityCell struct {
	Technique peft.Kind
	Task      data.Task
	Metric    float64 // paper-style percentage
}

// pretrainBackbone mimics the paper's setting, where PEFT adapts a
// *pretrained* LLM: the Tiny backbone is first trained end-to-end on a
// generic synthetic corpus (same token-signal mechanism, disjoint seed)
// so its frozen features carry usable structure before any technique is
// attached.
func pretrainBackbone(cfg model.Config, seqLen int, seed int64) *model.Model {
	pre := data.Generate(data.GenConfig{
		Task: data.SST2, Size: 512, SeqLen: seqLen, Vocab: 64, Seed: seed + 9999,
	})
	m := model.New(cfg)
	tech := peft.New(peft.Full, m, peft.Options{Seed: seed})
	tr := &train.Trainer{Tech: tech, Opt: train.NewAdam(tech.Trainable(), 3e-3), ClipNorm: 1}
	loader := data.NewLoader(pre, 16, seed)
	for ep := 0; ep < 6; ep++ {
		tr.TrainEpoch(loader, ep)
	}
	return m
}

// copyBackbone copies all non-head parameters from src into dst (the
// head widths may differ between classification and regression tasks).
func copyBackbone(dst, src *model.Model) {
	dp, sp := dst.Params(), src.Params()
	// The head block contributes the final four parameters (LN γ/β +
	// projection W/b).
	n := len(sp) - 4
	for i := 0; i < n; i++ {
		dp[i].Value.CopyFrom(sp[i].Value)
	}
}

// table3Data trains every technique on every task and reports the final
// metric (mean of F1/accuracy for MRPC, Pearson-Spearman for STS-B,
// accuracy otherwise) — the real-training counterpart of paper Table 3.
func table3Data(qc QualityConfig) []qualityCell {
	qc = qc.withDefaults()
	baseCfg := model.Tiny()
	baseCfg.MaxSeq = qc.SeqLen * 2
	pretrained := pretrainBackbone(baseCfg, qc.SeqLen, qc.Seed)
	var out []qualityCell
	for _, task := range data.AllTasks() {
		spec := data.SpecFor(task)
		ds := data.Generate(data.GenConfig{
			Task: task, Size: qc.Samples, SeqLen: qc.SeqLen, Vocab: 64, Seed: qc.Seed,
		})
		trainDS, evalDS := ds.Split(0.25)
		for _, kind := range peft.AllKinds() {
			cfg := baseCfg
			cfg.NumClasses = spec.NumClasses
			m := model.New(cfg)
			copyBackbone(m, pretrained)
			tech := peft.New(kind, m, peft.Options{Reduction: 2, LoRARank: 4, Seed: qc.Seed})
			tr := &train.Trainer{
				Tech:       tech,
				Opt:        train.NewAdam(tech.Trainable(), 4e-3),
				Regression: spec.Regression,
				ClipNorm:   1,
			}
			loader := data.NewLoader(trainDS, 16, qc.Seed)
			for ep := 0; ep < qc.Epochs; ep++ {
				tr.TrainEpoch(loader, ep)
			}
			res := train.Evaluate(tech, evalDS, 16)
			out = append(out, qualityCell{Technique: kind, Task: task, Metric: res.Metric(task)})
		}
	}
	return out
}

// Table3 renders the quality comparison in the paper's layout, including
// the mean of the three baselines and Parallel Adapters' difference from
// it (the paper's parity criterion).
func Table3(qc QualityConfig) *Table {
	t := &Table{
		Title:  "Table 3 — final quality by technique (real training, Tiny model, synthetic tasks)",
		Header: []string{"Technique", "MRPC", "STS-B", "SST-2", "QNLI"},
	}
	cells := table3Data(qc)
	byTech := map[peft.Kind]map[data.Task]float64{}
	for _, c := range cells {
		if byTech[c.Technique] == nil {
			byTech[c.Technique] = map[data.Task]float64{}
		}
		byTech[c.Technique][c.Task] = c.Metric
	}
	for _, kind := range peft.AllKinds() {
		row := []string{kind.String()}
		for _, task := range data.AllTasks() {
			row = append(row, fmt.Sprintf("%.2f", byTech[kind][task]))
		}
		t.addRow(row...)
	}
	meanRow := []string{"Mean(Full,Adapters,LoRA)"}
	diffRow := []string{"P.A. − Mean"}
	for _, task := range data.AllTasks() {
		mean := (byTech[peft.Full][task] + byTech[peft.Adapters][task] + byTech[peft.LoRA][task]) / 3
		meanRow = append(meanRow, fmt.Sprintf("%.2f", mean))
		diffRow = append(diffRow, fmt.Sprintf("%+.2f", byTech[peft.ParallelAdapters][task]-mean))
	}
	t.addRow(meanRow...)
	t.addRow(diffRow...)
	t.Notes = append(t.Notes,
		"paper: Parallel Adapters within ±0.37 of the baseline mean on every dataset")
	return t
}
