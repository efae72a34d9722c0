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
	"io"
	"os"
	"strings"

	"pac/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "pac-bench: %v\n", err)
		os.Exit(2)
	}
}

// run is the whole command behind a testable seam: every -exp name is
// checked before any experiment runs.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pac-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment to run (comma-separated): table1, figure3, table2, table3, figure8, figure9, figure10, figure11, ablations")
	qSamples := fs.Int("quality-samples", 320, "samples per task for the Table 3 real-training sweep")
	qEpochs := fs.Int("quality-epochs", 8, "epochs for the Table 3 real-training sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}

	tables := map[string]func() []*bench.Table{
		"table1":   one(bench.Table1),
		"figure3":  one(bench.Figure3),
		"table2":   one(bench.Table2),
		"figure8":  one(bench.Figure8),
		"figure9":  one(bench.Figure9),
		"figure10": one(bench.Figure10),
		"figure11": one(bench.Figure11),
		"table3": func() []*bench.Table {
			return []*bench.Table{bench.Table3(bench.QualityConfig{Samples: *qSamples, Epochs: *qEpochs})}
		},
		"ablations": func() []*bench.Table {
			return []*bench.Table{bench.RedistributionAblation(), bench.ScheduleAblation(), bench.ReductionSweep(),
				bench.EpochSweep(), bench.CacheCompressionAblation(), bench.StragglerAblation()}
		},
	}

	selected := []string{"table1", "figure3", "table2", "table3", "figure8", "figure9", "figure10", "figure11", "ablations"}
	if *exp != "all" {
		selected = strings.Split(*exp, ",")
	}
	for i, name := range selected {
		selected[i] = strings.TrimSpace(name)
		if tables[selected[i]] == nil {
			return fmt.Errorf("unknown experiment %q", selected[i])
		}
	}
	for _, name := range selected {
		for _, t := range tables[name]() {
			fmt.Fprintln(out, t.Render())
		}
	}
	return nil
}

func one(f func() *bench.Table) func() []*bench.Table {
	return func() []*bench.Table { return []*bench.Table{f()} }
}
