package bench

import (
	"math"
	"strings"
	"testing"

	"pac/internal/data"
	"pac/internal/peft"
)

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "t", Header: []string{"a", "bb"}}
	tb.addRow("1", "2")
	tb.Notes = append(tb.Notes, "n")
	out := tb.Render()
	for _, want := range []string{"== t ==", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTable1ShapeAndOrdering(t *testing.T) {
	tb := Table1()
	if len(tb.RowsStr) != 5 {
		t.Fatalf("Table 1 rows = %d", len(tb.RowsStr))
	}
	// Rendering must include every technique and the paper note.
	out := tb.Render()
	for _, name := range []string{"Full", "Adapters", "LoRA", "ParallelAdapters", "Inference"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table 1 missing %s", name)
		}
	}
}

func TestFigure3ForwardShares(t *testing.T) {
	tb := Figure3()
	out := tb.Render()
	if !strings.Contains(out, "ParallelAdapters+cache") {
		t.Fatal("Figure 3 missing cached row")
	}
}

func TestTable2HeadlineShape(t *testing.T) {
	cells := table2Data()
	if len(cells) != 10*3*4 {
		t.Fatalf("Table 2 has %d cells, want 120", len(cells))
	}
	get := func(kind peft.Kind, eng string, mdl string, task data.Task) table2Cell {
		for _, c := range cells {
			if c.Technique == kind && c.EngineN.String() == eng && c.Model == mdl && c.Task == task {
				return c
			}
		}
		t.Fatalf("missing cell %v %s %s %v", kind, eng, mdl, task)
		return table2Cell{}
	}
	// PAC never OOMs and is the fastest feasible method per column.
	for _, mdl := range []string{"T5-Base", "BART-Large", "T5-Large"} {
		for _, task := range data.AllTasks() {
			pac := get(peft.ParallelAdapters, "PAC", mdl, task)
			if pac.OOM {
				t.Fatalf("PAC OOM on %s/%s", mdl, task)
			}
			for _, c := range cells {
				if c.Model == mdl && c.Task == task && !c.OOM && c.Technique != peft.ParallelAdapters {
					if pac.Hours >= c.Hours {
						t.Errorf("%s/%s: PAC %.2fh ≥ %s+%s %.2fh", mdl, task, pac.Hours,
							c.EngineN, c.Technique, c.Hours)
					}
				}
			}
		}
	}
	// Full fine-tuning OOMs on Standalone and EDDL everywhere.
	for _, mdl := range []string{"T5-Base", "BART-Large", "T5-Large"} {
		if !get(peft.Full, "Standalone", mdl, data.MRPC).OOM {
			t.Errorf("Full standalone on %s should OOM", mdl)
		}
		if !get(peft.Full, "EDDL", mdl, data.MRPC).OOM {
			t.Errorf("Full EDDL on %s should OOM", mdl)
		}
	}
	// Adapters standalone fits only T5-Base.
	if get(peft.Adapters, "Standalone", "T5-Base", data.MRPC).OOM {
		t.Error("Adapters standalone T5-Base should fit")
	}
	if !get(peft.Adapters, "Standalone", "BART-Large", data.MRPC).OOM {
		t.Error("Adapters standalone BART-Large should OOM")
	}
	// Eco-FL with PEFT runs even T5-Large.
	if get(peft.LoRA, "Eco-FL", "T5-Large", data.QNLI).OOM {
		t.Error("LoRA Eco-FL T5-Large should fit")
	}
	// Max speedup of PAC vs the best feasible baseline on the cached
	// datasets should be substantial (paper: up to 8.64×).
	best := math.Inf(1)
	for _, c := range cells {
		if c.Model == "T5-Base" && c.Task == data.MRPC && !c.OOM && c.Technique != peft.ParallelAdapters {
			if c.Hours < best {
				best = c.Hours
			}
		}
	}
	pac := get(peft.ParallelAdapters, "PAC", "T5-Base", data.MRPC)
	if best/pac.Hours < 1.3 {
		t.Errorf("PAC speedup vs best baseline only %.2f×", best/pac.Hours)
	}
}

func TestFigure8Deltas(t *testing.T) {
	rows := figure8Data()
	byName := map[string]figure8Row{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	full, ok1 := byName["Full"]
	pa, ok2 := byName["P.A."]
	pac, ok3 := byName["P.A.+cache"]
	ad, ok4 := byName["Adapters"]
	if !ok1 || !ok2 || !ok3 || !ok4 {
		t.Fatalf("missing rows: %v", rows)
	}
	if full.OOM || pa.OOM || pac.OOM || ad.OOM {
		t.Fatalf("unexpected OOM in Figure 8 rows")
	}
	// Paper Figure 8a: P.A. cuts per-sample time vs Full; cache cuts it
	// much further.
	if pa.PerSampleSec >= full.PerSampleSec {
		t.Errorf("P.A. per-sample %.4f ≥ Full %.4f", pa.PerSampleSec, full.PerSampleSec)
	}
	if pac.PerSampleSec >= pa.PerSampleSec {
		t.Errorf("cache did not reduce per-sample time: %.4f ≥ %.4f", pac.PerSampleSec, pa.PerSampleSec)
	}
	// Paper Figure 8b: P.A. uses less memory than in-backbone PEFT; the
	// cache sheds the backbone (−74.57% in the paper).
	if pa.Memory.Total() >= ad.Memory.Total() {
		t.Errorf("P.A. memory %.2f ≥ Adapters %.2f GiB",
			float64(pa.Memory.Total())/(1<<30), float64(ad.Memory.Total())/(1<<30))
	}
	reduction := 1 - float64(pac.Memory.Total())/float64(ad.Memory.Total())
	if reduction < 0.5 {
		t.Errorf("cached memory reduction %.0f%% vs Adapters, want >50%%", reduction*100)
	}
}

func TestFigure9SeriesShape(t *testing.T) {
	rows := figure9Data()
	// EDDL OOMs on BART-Large and T5-Large at every device count.
	for _, r := range rows {
		if r.EngineN.String() == "EDDL" && r.Model != "T5-Base" && !r.OOM {
			t.Errorf("EDDL on %s at %d devices should OOM", r.Model, r.Devices)
		}
	}
	// PAC at 8 devices ≥ Eco-FL at 8 devices for every model.
	tp := map[string]float64{}
	for _, r := range rows {
		if r.Devices == 8 && !r.OOM {
			tp[r.Model+"|"+r.EngineN.String()] = r.Throughput
		}
	}
	for _, mdl := range []string{"T5-Base", "BART-Large", "T5-Large"} {
		pacTp, eco := tp[mdl+"|PAC"], tp[mdl+"|Eco-FL"]
		if pacTp == 0 {
			t.Fatalf("PAC missing for %s", mdl)
		}
		if eco > 0 && pacTp < eco {
			t.Errorf("%s: PAC %.2f < Eco-FL %.2f at 8 devices", mdl, pacTp, eco)
		}
	}
}

func TestFigure10GroupingsCoverDevices(t *testing.T) {
	tb := Figure10()
	if len(tb.RowsStr) != 3 {
		t.Fatalf("Figure 10 rows %d", len(tb.RowsStr))
	}
	out := tb.Render()
	if !strings.Contains(out, "+") && !strings.Contains(out, "OOM") {
		t.Fatalf("no hybrid groupings rendered:\n%s", out)
	}
}

func TestFigure11CacheAlwaysSaves(t *testing.T) {
	rows := figure11Data()
	if len(rows) < 5 {
		t.Fatalf("only %d device counts feasible", len(rows))
	}
	for _, r := range rows {
		if r.SavedPct <= 0 {
			t.Errorf("devices=%d: cache saved %.1f%%", r.Devices, r.SavedPct)
		}
		if r.CacheHours >= r.NoCacheHours {
			t.Errorf("devices=%d: cache not faster", r.Devices)
		}
	}
}

func TestTable3ParityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("real training sweep")
	}
	cells := table3Data(QualityConfig{Samples: 192, Epochs: 5})
	byTech := map[peft.Kind]map[data.Task]float64{}
	for _, c := range cells {
		if byTech[c.Technique] == nil {
			byTech[c.Technique] = map[data.Task]float64{}
		}
		byTech[c.Technique][c.Task] = c.Metric
	}
	// Every technique must clearly beat chance on the classification
	// tasks (50%) — i.e., they all learn.
	for _, kind := range peft.AllKinds() {
		for _, task := range []data.Task{data.SST2, data.QNLI} {
			if byTech[kind][task] < 65 {
				t.Errorf("%s on %s: %.1f%% — did not learn", kind, task, byTech[kind][task])
			}
		}
	}
	// Parallel Adapters parity: within 15 points of the baseline mean on
	// every task (the paper's ±0.37 needs full-scale models; the shape
	// criterion is "comparable, not degraded").
	for _, task := range data.AllTasks() {
		mean := (byTech[peft.Full][task] + byTech[peft.Adapters][task] + byTech[peft.LoRA][task]) / 3
		diff := byTech[peft.ParallelAdapters][task] - mean
		if diff < -15 {
			t.Errorf("P.A. on %s: %.1f vs mean %.1f — not comparable", task, byTech[peft.ParallelAdapters][task], mean)
		}
	}
}

func TestAblationTablesRender(t *testing.T) {
	for _, tb := range []*Table{RedistributionAblation(), ScheduleAblation(), ReductionSweep(), EpochSweep()} {
		out := tb.Render()
		if len(out) < 40 {
			t.Fatalf("suspiciously short ablation output:\n%s", out)
		}
	}
}
