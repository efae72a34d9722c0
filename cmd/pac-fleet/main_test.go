package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunOfflinePlanAndStatus(t *testing.T) {
	dir := t.TempDir()
	goal := filepath.Join(dir, "goal.json")
	state := filepath.Join(dir, "state.json")
	writeFile(t, goal, `{
	 "devices": ["a", "b", "c"],
	 "groups": [{"group": 0, "adapter_version": "v2", "min_replicas": 2}]
	}`)
	writeFile(t, state, `{
	 "devices": [
	  {"name": "a", "group": 0, "alive": true, "adapter_version": "v1"},
	  {"name": "b", "group": 0, "alive": true, "adapter_version": "v1"},
	  {"name": "c", "group": 0, "alive": true, "adapter_version": "v1"}
	 ]
	}`)

	var sb strings.Builder
	if err := run([]string{"-goal", goal, "-state", state, "-plan"}, &sb); err != nil {
		t.Fatalf("plan: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"wave", "drain a", "swap a", "fingerprint"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}

	sb.Reset()
	if err := run([]string{"-goal", goal, "-state", state, "-status"}, &sb); err != nil {
		t.Fatalf("status: %v", err)
	}
	out = sb.String()
	if !strings.Contains(out, "group 0: 3 in-service (floor 2)") || !strings.Contains(out, "diverged") {
		t.Errorf("status output wrong:\n%s", out)
	}

	// A converged state reports so.
	converged := filepath.Join(dir, "state2.json")
	writeFile(t, converged, `{
	 "devices": [
	  {"name": "a", "group": 0, "alive": true, "adapter_version": "v2"},
	  {"name": "b", "group": 0, "alive": true, "adapter_version": "v2"},
	  {"name": "c", "group": 0, "alive": true, "adapter_version": "v2"}
	 ]
	}`)
	sb.Reset()
	if err := run([]string{"-goal", goal, "-state", converged, "-status"}, &sb); err != nil {
		t.Fatalf("status converged: %v", err)
	}
	if !strings.Contains(sb.String(), "converged") {
		t.Errorf("converged status wrong:\n%s", sb.String())
	}
}

func TestRunOfflineRejectsMissingFlags(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Fatal("bare invocation accepted")
	}
}
