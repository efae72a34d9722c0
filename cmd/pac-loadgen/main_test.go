package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestRunReplaysUnderTraining replays a short seeded classify trace
// against the in-process server while -train fine-tunes beside it and
// pushes each round's adapters through UpdateWeights: every request is
// answered, none is canceled, and at least one push landed mid-replay.
func TestRunReplaysUnderTraining(t *testing.T) {
	report := filepath.Join(t.TempDir(), "report.json")
	var out strings.Builder
	err := run([]string{"-seed", "5", "-users", "8", "-qps", "60", "-duration", "1500ms",
		"-mix", "0", "-train", "-report", report}, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	blob, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Ops []struct {
			Op                           string
			Issued, OK, Errors, Canceled int64
		}
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Ops) == 0 {
		t.Fatalf("report has no ops: %s", blob)
	}
	for _, op := range rep.Ops {
		if op.Issued == 0 || op.OK != op.Issued || op.Errors != 0 || op.Canceled != 0 {
			t.Errorf("%s: %d issued, %d ok, %d errors, %d canceled", op.Op, op.Issued, op.OK, op.Errors, op.Canceled)
		}
	}
	m := regexp.MustCompile(`\((\d+) adapter pushes\)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no training summary in the log:\n%s", out.String())
	}
	if pushes, _ := strconv.Atoi(m[1]); pushes == 0 {
		t.Fatalf("no adapter push landed during the replay:\n%s", out.String())
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-no-such-flag"}, &out); err == nil {
		t.Error("an unknown flag was accepted")
	}
	if err := run([]string{"-target", "http://127.0.0.1:1", "-train", "-duration", "100ms"}, &out); err == nil {
		t.Error("-train with a remote target was accepted")
	}
}
