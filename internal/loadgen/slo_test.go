package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pac/internal/telemetry"
)

// sampleReport is a fixed report for budget evaluation: classify runs
// at 800 req/s with p99 = 4ms, generate at 50 req/s with p99 = 80ms.
func sampleReport() *Report {
	return &Report{
		GoVersion: "go1.24.0", GOMAXPROCS: 4,
		Seed: 7, Users: 50, Requests: 850, Speedup: 1,
		WallSeconds: 1.0, IssueWallSeconds: 0.9,
		Ops: []OpStats{
			{Op: "classify", Issued: 800, OK: 800, ThroughputRPS: 800,
				Latency: telemetry.HistStats{Count: 800, Sum: 1.6, P50: 0.001, P95: 0.003, P99: 0.004}},
			{Op: "generate", Issued: 50, OK: 50, ThroughputRPS: 50,
				Latency: telemetry.HistStats{Count: 50, Sum: 2.0, P50: 0.03, P95: 0.06, P99: 0.08}},
		},
	}
}

func TestSLOSatisfiedPasses(t *testing.T) {
	rep := sampleReport()
	budget := SLOBudget{PerOp: map[string]OpBudget{
		"classify": {P50: 0.01, P95: 0.05, P99: 0.1, MinQPS: 100},
		"generate": {P99: 0.5, MinQPS: 10},
	}}
	if err := budget.Gate(rep); err != nil {
		t.Fatalf("satisfiable budget failed: %v", err)
	}
	if rep.SLOOk == nil || !*rep.SLOOk {
		t.Fatalf("verdict not recorded: %+v", rep.SLOOk)
	}
	if len(rep.SLOViolations) != 0 {
		t.Fatalf("violations recorded on pass: %v", rep.SLOViolations)
	}
}

func TestSLOImpossibleBudgetFailsTyped(t *testing.T) {
	rep := sampleReport()
	budget := SLOBudget{PerOp: map[string]OpBudget{
		"classify": {P95: 1e-9}, // nothing serves in a nanosecond
	}}
	err := budget.Gate(rep)
	if err == nil {
		t.Fatal("impossible budget passed")
	}
	var v *SLOViolation
	if !errors.As(err, &v) {
		t.Fatalf("error not a typed violation: %v", err)
	}
	if v.Op != "classify" || v.Metric != "p95" {
		t.Fatalf("violation names %s/%s, want classify/p95", v.Op, v.Metric)
	}
	if v.Actual != 0.003 || v.Limit != 1e-9 {
		t.Fatalf("violation values %+v", v)
	}
	if rep.SLOOk == nil || *rep.SLOOk {
		t.Fatal("failing verdict not recorded")
	}
	if len(rep.SLOViolations) != 1 {
		t.Fatalf("violations %v", rep.SLOViolations)
	}
}

func TestSLOThroughputFloorAndMissingOp(t *testing.T) {
	rep := sampleReport()
	budget := SLOBudget{PerOp: map[string]OpBudget{
		"generate": {MinQPS: 500}, // generate only runs at 50 req/s
	}}
	err := budget.Gate(rep)
	var v *SLOViolation
	if !errors.As(err, &v) || v.Metric != "throughput" || v.Op != "generate" {
		t.Fatalf("want generate/throughput violation, got %v", err)
	}

	// A budgeted op the trace never exercised is itself a violation.
	missing := SLOBudget{PerOp: map[string]OpBudget{"embed": {MinQPS: 1}}}
	if err := missing.Gate(sampleReport()); err == nil {
		t.Fatal("missing op passed its throughput floor")
	}

	// Multiple violations all surface through errors.Join.
	multi := SLOBudget{PerOp: map[string]OpBudget{
		"classify": {P50: 1e-9, P99: 1e-9},
	}}
	rep2 := sampleReport()
	if err := multi.Gate(rep2); err == nil || len(rep2.SLOViolations) != 2 {
		t.Fatalf("want 2 violations, got %v (%v)", rep2.SLOViolations, err)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := sampleReport()
	budget := SLOBudget{PerOp: map[string]OpBudget{"classify": {P99: 0.1, MinQPS: 1}}}
	if err := budget.Gate(rep); err != nil {
		t.Fatal(err)
	}
	blob := rep.JSON()
	back := new(Report)
	if err := json.Unmarshal(blob, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, back.JSON()) {
		t.Fatalf("report changed across encode/decode:\n%s\nvs\n%s", blob, back.JSON())
	}
	if back.Op("classify") == nil || back.Op("classify").ThroughputRPS != 800 {
		t.Fatalf("decoded report lost data: %+v", back)
	}
	if back.Op("embed") != nil {
		t.Fatal("phantom op in decoded report")
	}
}

func TestParseSLOInlineAndFile(t *testing.T) {
	inline := `{"per_op":{"classify":{"p99":0.25,"min_qps":20}}}`
	b, err := ParseSLO(inline)
	if err != nil {
		t.Fatal(err)
	}
	if b.PerOp["classify"].P99 != 0.25 || b.PerOp["classify"].MinQPS != 20 {
		t.Fatalf("parsed %+v", b)
	}

	path := filepath.Join(t.TempDir(), "slo.json")
	if err := os.WriteFile(path, []byte(inline), 0o644); err != nil {
		t.Fatal(err)
	}
	fromFile, err := ParseSLO(path)
	if err != nil {
		t.Fatal(err)
	}
	if fromFile.PerOp["classify"] != b.PerOp["classify"] {
		t.Fatalf("file parse differs: %+v", fromFile)
	}

	for _, bad := range []string{
		`{"per_op":{}}`,
		`{"budgets":{"classify":{}}}`, // unknown field
		"/does/not/exist.json",
	} {
		if _, err := ParseSLO(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}
