package main

import (
	"strings"
	"testing"
)

func TestRunSmoke(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "table1,figure3,figure11"}, &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"== Table 1 —", "== Figure 3 —", "== Figure 11 —"} {
		if strings.Count(out, want) != 1 {
			t.Errorf("want one %q header:\n%s", want, out)
		}
	}
	if strings.Count(out, "== ") != 3 {
		t.Errorf("want exactly three tables:\n%s", out)
	}
}

// TestRunRejectsUnknownExperiment: a bad name anywhere in -exp fails
// the run before the good names before it print anything.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "table1,nope"}, &sb)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "nope"`) {
		t.Errorf("run: %v, want the unknown experiment named", err)
	}
	if sb.Len() != 0 {
		t.Errorf("printed before failing:\n%s", sb.String())
	}
}
