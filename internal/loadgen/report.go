package loadgen

import (
	"encoding/json"
	"fmt"
	"strings"
	"text/tabwriter"

	"pac/internal/telemetry"
)

// OpStats is the measured serving profile of one request kind under a
// replayed trace: issue/outcome counts, completed-request throughput
// over the run's wall clock, and the latency digest.
type OpStats struct {
	Op            string              `json:"op"`
	Issued        int64               `json:"issued"`
	OK            int64               `json:"ok"`
	Errors        int64               `json:"errors"`
	Canceled      int64               `json:"canceled"`
	ThroughputRPS float64             `json:"throughput_rps"`
	Latency       telemetry.HistStats `json:"latency_seconds"`
	// Exemplars names the trace IDs behind the slowest requests (the
	// loadgen tail sampler force-records them even below the head
	// sampling rate), slowest first. Omitted when tracing was off.
	Exemplars []TraceExemplar `json:"p99_exemplars,omitempty"`
}

// TraceExemplar links one observed latency to the hex trace ID of the
// request that produced it, so a report line like "p99 41ms" resolves
// to a concrete span tree in the trace dump.
type TraceExemplar struct {
	Trace   string  `json:"trace"`
	Seconds float64 `json:"seconds"`
}

// Report is what one trace replay measured. pac-loadgen -report writes
// it as JSON; the CI loadgen-smoke job produces one under a seeded
// trace and gates on the embedded SLO verdict.
type Report struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	// Trace identity: the seed plus user population that produced the
	// replayed request stream (diffable across runs).
	Seed     int64   `json:"seed"`
	Users    int     `json:"users"`
	Requests int64   `json:"requests"`
	Speedup  float64 `json:"speedup,omitempty"`

	// IssueWallSeconds is how long the open-loop issue schedule took to
	// drain — by construction (arrivals are precomputed) it tracks the
	// trace duration, not server latency. WallSeconds additionally waits
	// for the last in-flight request.
	WallSeconds      float64 `json:"wall_seconds"`
	IssueWallSeconds float64 `json:"issue_wall_seconds"`

	Ops []OpStats `json:"ops"`

	// SLO verdict, filled by the load harness when a budget was supplied.
	SLOOk         *bool    `json:"slo_ok,omitempty"`
	SLOViolations []string `json:"slo_violations,omitempty"`
}

// Op returns the stats for one request kind, or nil if the trace never
// issued it.
func (r *Report) Op(name string) *OpStats {
	for i := range r.Ops {
		if r.Ops[i].Op == name {
			return &r.Ops[i]
		}
	}
	return nil
}

// JSON marshals the report with indentation.
func (r *Report) JSON() []byte {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// Render formats the report as an aligned text table followed by its
// notes, for terminal output.
func (r *Report) Render() string {
	var b strings.Builder
	b.WriteString("== Serving under load ==\n")
	tw := tabwriter.NewWriter(&b, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "op\tissued\tok\terrors\tcanceled\trps\tp50 ms\tp95 ms\tp99 ms")
	for _, op := range r.Ops {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1f\t%.3f\t%.3f\t%.3f\n",
			op.Op, op.Issued, op.OK, op.Errors, op.Canceled, op.ThroughputRPS,
			op.Latency.P50*1e3, op.Latency.P95*1e3, op.Latency.P99*1e3)
	}
	tw.Flush()
	fmt.Fprintf(&b, "note: seed %d, %d users, %d requests; issue wall %.2fs, total wall %.2fs\n",
		r.Seed, r.Users, r.Requests, r.IssueWallSeconds, r.WallSeconds)
	for _, op := range r.Ops {
		if len(op.Exemplars) == 0 {
			continue
		}
		ex := op.Exemplars[0]
		fmt.Fprintf(&b, "note: %s tail exemplar: trace %s (%.3f ms, %d traced)\n",
			op.Op, ex.Trace, ex.Seconds*1e3, len(op.Exemplars))
	}
	if r.SLOOk != nil {
		if *r.SLOOk {
			b.WriteString("note: SLO: all budgets met\n")
		} else {
			for _, v := range r.SLOViolations {
				fmt.Fprintf(&b, "note: SLO VIOLATION: %s\n", v)
			}
		}
	}
	return b.String()
}
