package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// spec is the part of BENCHMARK.json the self-check needs.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadSpec finds BENCHMARK.json in the working directory or its parent
// (run.sh starts the binary at the root of the checkout, `go run .`
// starts it in benchmark/).
func loadSpec() (*spec, error) {
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		blob, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var s spec
		if err := json.Unmarshal(blob, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &s, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// child runs one workload in a process of its own, so that peak RSS, the
// tensor pool and the process-global backend start fresh, and returns
// the result object from the last line of its output.
func child(opt options, workload string, seed int64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64)}
	if opt.trace {
		args = append(args, "-trace", "1")
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct {
		return &res, fmt.Errorf("%s seed %d: %d of %d operations failed:\n%s", workload, seed, res.Failed, res.Attempted, out.String())
	}
	return &res, nil
}

func selected(opt options) []string {
	if opt.workload != "" {
		return []string{opt.workload}
	}
	return workloadNames
}

// selfCheck is the A/A test: every workload twice on the same binary and
// seed. It fails when two runs of identical code differ by more than the
// bound a later change would be held to.
func selfCheck(opt options) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	bad := 0
	for _, wl := range selected(opt) {
		a, err := child(opt, wl, opt.seed)
		if err != nil {
			return err
		}
		b, err := child(opt, wl, opt.seed)
		if err != nil {
			return err
		}
		for _, m := range sp.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			gap := (vb - va) / va
			if gap < 0 {
				gap = -gap
			}
			verdict := "ok"
			if gap > m.Bound {
				verdict = "EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-16s %-16s %14.6g %14.6g %-6s gap %6.2f%%  bound %5.1f%%  %s\n",
				wl, m.Name, va, vb, m.Unit, 100*gap, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-check: %d metric(s) differ between identical runs by more than their bound", bad)
	}
	return nil
}

// multiRun runs each selected workload n times on consecutive seeds and
// prints, per metric, the quartiles and the spread the driver computes.
func multiRun(opt options, n int) error {
	for _, wl := range selected(opt) {
		values := map[string][]float64{}
		units := map[string]string{}
		var order []string
		for i := 0; i < n; i++ {
			res, err := child(opt, wl, opt.seed+int64(i))
			if err != nil {
				return err
			}
			defs := endToEnd
			if opt.trace {
				defs = perLayer
			}
			for _, d := range defs {
				if i == 0 {
					order = append(order, d.name)
				}
				values[d.name] = append(values[d.name], res.Metrics[d.name].Value)
				units[d.name] = res.Metrics[d.name].Unit
			}
		}
		for _, name := range order {
			if n < 2 {
				fmt.Printf("%-16s %-36s %14.6g %s\n", wl, name, values[name][0], units[name])
				continue
			}
			q1, q2, q3 := quartiles(values[name])
			fmt.Printf("%-16s %-36s q1 %14.6g  median %14.6g  q3 %14.6g %-6s spread %6.2f%%\n",
				wl, name, q1, q2, q3, units[name], 100*spread(values[name]))
		}
	}
	return nil
}
