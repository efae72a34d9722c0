package main

import (
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-model", "t5-base", "-devices", "4", "-batch", "8"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"model T5-Base", "PAC (hybrid):", "Eco-FL (PP):", "EDDL (DP):"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsUnknownModel(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "gpt-17"}, &sb); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

// TestRunCompare exercises the analytic-vs-measured mode on the tiny
// model: it must profile for real, print one row per stage, and report
// the worst-case error the drift threshold has to tolerate.
func TestRunCompare(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-model", "tiny", "-devices", "4", "-batch", "8",
		"-seq", "16", "-compare", "-stages", "2"}, &sb)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"model Tiny",
		"cost-model comparison: 2 stage(s)",
		"analytic (s)",
		"measured (s)",
		"worst per-stage error",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if rows := strings.Count(out, "%"); rows < 2 {
		t.Errorf("expected per-stage error rows in output:\n%s", out)
	}
}

func TestRunCompareRejectsBadStages(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "tiny", "-compare", "-stages", "0"}, &sb); err == nil {
		t.Fatal("expected error for zero stages")
	}
}

// TestRunCompareParallelAdaptersOnly: the profile runs the engines'
// one technique, so a comparison under another has nothing measured.
func TestRunCompareParallelAdaptersOnly(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-model", "tiny", "-technique", "full", "-compare"}, &sb); err == nil ||
		!strings.Contains(err.Error(), "Parallel Adapters") {
		t.Fatalf("-compare -technique full: %v", err)
	}
	if err := run([]string{"-model", "tiny", "-technique", "full"}, &sb); err != nil {
		t.Fatalf("-technique full without -compare: %v", err)
	}
}
