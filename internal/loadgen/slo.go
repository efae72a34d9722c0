package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
)

// OpBudget is one op's SLO: latency percentile ceilings in seconds
// (0 = unchecked) and a minimum completed-request throughput.
type OpBudget struct {
	P50    float64 `json:"p50,omitempty"`
	P95    float64 `json:"p95,omitempty"`
	P99    float64 `json:"p99,omitempty"`
	MinQPS float64 `json:"min_qps,omitempty"`
}

// SLOBudget maps op names ("classify", "generate") to their budgets.
// Budgeted ops must appear in the report: a missing op is itself a
// violation (the trace was supposed to exercise it).
type SLOBudget struct {
	PerOp map[string]OpBudget `json:"per_op"`
}

// SLOViolation is the typed error for one exceeded budget: which op,
// which metric ("p50"/"p95"/"p99"/"throughput"), the budgeted limit and
// the measured value.
type SLOViolation struct {
	Op     string  `json:"op"`
	Metric string  `json:"metric"`
	Limit  float64 `json:"limit"`
	Actual float64 `json:"actual"`
}

// Error implements error.
func (v *SLOViolation) Error() string {
	if v.Metric == "throughput" {
		return fmt.Sprintf("slo violation: op %q throughput %.2f req/s below budget %.2f req/s",
			v.Op, v.Actual, v.Limit)
	}
	return fmt.Sprintf("slo violation: op %q %s %.6gs exceeds budget %.6gs",
		v.Op, v.Metric, v.Actual, v.Limit)
}

// Evaluate checks the report against the budget and returns every
// violation in deterministic order (ops sorted, then p50/p95/p99/
// throughput).
func (b SLOBudget) Evaluate(rep *Report) []*SLOViolation {
	ops := make([]string, 0, len(b.PerOp))
	for op := range b.PerOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)

	var out []*SLOViolation
	for _, op := range ops {
		budget := b.PerOp[op]
		st := rep.Op(op)
		if st == nil {
			// The budgeted op never ran: that is a throughput violation if
			// a floor was set, and a missing percentile sample otherwise.
			if budget.MinQPS > 0 {
				out = append(out, &SLOViolation{Op: op, Metric: "throughput", Limit: budget.MinQPS})
			}
			continue
		}
		for _, pc := range []struct {
			name  string
			limit float64
		}{{"p50", budget.P50}, {"p95", budget.P95}, {"p99", budget.P99}} {
			if pc.limit <= 0 {
				continue
			}
			actual, _ := st.Latency.Percentile(pc.name)
			if actual > pc.limit {
				out = append(out, &SLOViolation{Op: op, Metric: pc.name, Limit: pc.limit, Actual: actual})
			}
		}
		if budget.MinQPS > 0 && st.ThroughputRPS < budget.MinQPS {
			out = append(out, &SLOViolation{Op: op, Metric: "throughput", Limit: budget.MinQPS, Actual: st.ThroughputRPS})
		}
	}
	return out
}

// Gate evaluates the budget, records the verdict into the report
// (slo_ok, slo_violations), and returns an error joining every typed
// violation — nil when all budgets are met.
func (b SLOBudget) Gate(rep *Report) error {
	violations := b.Evaluate(rep)
	ok := len(violations) == 0
	rep.SLOOk = &ok
	rep.SLOViolations = nil
	errs := make([]error, 0, len(violations))
	for _, v := range violations {
		rep.SLOViolations = append(rep.SLOViolations, v.Error())
		errs = append(errs, v)
	}
	return errors.Join(errs...)
}

// ParseSLO reads a budget from inline JSON (a string starting with '{')
// or from a file path.
func ParseSLO(s string) (SLOBudget, error) {
	var blob []byte
	if strings.HasPrefix(strings.TrimSpace(s), "{") {
		blob = []byte(s)
	} else {
		var err error
		if blob, err = os.ReadFile(s); err != nil {
			return SLOBudget{}, fmt.Errorf("loadgen: read slo budget: %w", err)
		}
	}
	var b SLOBudget
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		return SLOBudget{}, fmt.Errorf("loadgen: parse slo budget: %w", err)
	}
	if len(b.PerOp) == 0 {
		return SLOBudget{}, errors.New("loadgen: slo budget names no ops")
	}
	return b, nil
}
