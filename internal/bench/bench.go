// Package bench regenerates every table and figure of the paper's
// evaluation section (§6). Each experiment returns structured rows plus
// a text rendering that mirrors the paper's layout; cmd/pac-bench and
// the repository-level testing.B benchmarks drive them.
//
// Absolute numbers come from the Jetson-Nano cost model, so the
// reproduction criterion is the paper's *shape*: who wins, which cells
// OOM, and the relative factors. EXPERIMENTS.md records measured-vs-
// paper for every experiment.
package bench

import (
	"fmt"
	"strings"
)

// Table is a generic rendered experiment result.
type Table struct {
	Title   string
	Header  []string
	RowsStr [][]string
	Notes   []string
}

// addRow appends a formatted row.
func (t *Table) addRow(cells ...string) {
	t.RowsStr = append(t.RowsStr, cells)
}

// Render produces an aligned text table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.RowsStr {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.RowsStr {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// fmtHours renders a duration-or-OOM cell like the paper's Table 2.
func fmtHours(h float64, oom bool) string {
	if oom {
		return "OOM"
	}
	return fmt.Sprintf("%.2f", h)
}

// gib renders bytes as GiB with two decimals.
func gib(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<30)) }
