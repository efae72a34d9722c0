// Command pac-bench regenerates the paper's evaluation tables and
// figures and prints them in the paper's layout.
//
// Usage:
//
//	pac-bench [-exp all|table1|figure3|table2|table3|figure8|figure9|figure10|figure11|ablations]
//	          [-quality-samples N] [-quality-epochs N]
//
// Performance evidence lives elsewhere: BENCHMARK.json + benchmark/ for
// the end-to-end workloads and their per-layer probes, `go test -bench`
// for the allocation budgets.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pac/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run (comma-separated): table1, figure3, table2, table3, figure8, figure9, figure10, figure11, ablations")
	qSamples := flag.Int("quality-samples", 320, "samples per task for the Table 3 real-training sweep")
	qEpochs := flag.Int("quality-epochs", 8, "epochs for the Table 3 real-training sweep")
	flag.Parse()

	run := map[string]func() *bench.Table{
		"table1":   bench.Table1,
		"figure3":  bench.Figure3,
		"table2":   bench.Table2,
		"figure8":  bench.Figure8,
		"figure9":  bench.Figure9,
		"figure10": bench.Figure10,
		"figure11": bench.Figure11,
		"table3": func() *bench.Table {
			return bench.Table3(bench.QualityConfig{Samples: *qSamples, Epochs: *qEpochs})
		},
	}
	order := []string{"table1", "figure3", "table2", "table3", "figure8", "figure9", "figure10", "figure11"}

	var selected []string
	switch *exp {
	case "all":
		selected = append(selected, order...)
		selected = append(selected, "ablations")
	default:
		selected = strings.Split(*exp, ",")
	}

	for _, name := range selected {
		name = strings.TrimSpace(name)
		if name == "ablations" {
			fmt.Println(bench.RedistributionAblation().Render())
			fmt.Println(bench.ScheduleAblation().Render())
			fmt.Println(bench.ReductionSweep().Render())
			fmt.Println(bench.EpochSweep().Render())
			fmt.Println(bench.CacheCompressionAblation().Render())
			fmt.Println(bench.StragglerAblation().Render())
			continue
		}
		fn, ok := run[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "pac-bench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		fmt.Println(fn().Render())
	}
}
