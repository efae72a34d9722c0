// The files a run leaves behind: -mem-report, -flight-out, -trace-out.

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"pac/internal/health"
	"pac/internal/memledger"
	"pac/internal/telemetry"
)

// memBench is the BENCH_mem.json shape: per-account peak bytes for the
// process ledger, total peaks per device ledger. The committed
// BENCH_mem.json holds budget ceilings in this shape; -mem-report
// writes the measured peaks so CI can compare the two field by field.
type memBench struct {
	Schema         string           `json:"schema"`
	TotalPeakBytes int64            `json:"total_peak_bytes"`
	Accounts       map[string]int64 `json:"accounts"`
	Devices        map[string]int64 `json:"devices,omitempty"`
}

// writeMemReport captures the ledgers' lifetime peaks as JSON.
func writeMemReport(path string, l *memledger.Ledger, devs []*memledger.Ledger) error {
	rep := memBench{
		Schema:         "pac-mem-bench/v1",
		TotalPeakBytes: l.TotalPeak(),
		Accounts:       map[string]int64{},
		Devices:        map[string]int64{},
	}
	for _, a := range l.Snapshot().Accounts {
		rep.Accounts[a.Account] = a.PeakBytes
	}
	for _, d := range devs {
		rep.Devices[d.Name()] = d.TotalPeak()
	}
	blob, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// dumpFlight serializes the flight-recorder ring: to path when one was
// given, otherwise inline on w for failure reasons so the last events
// before death land in the log ("run complete" stays quiet without a
// path). A nil or empty recorder dumps nothing.
func dumpFlight(w io.Writer, reason, path string) {
	rec := health.Flight()
	if rec == nil || rec.Recorded() == 0 {
		return
	}
	blob, err := rec.Dump()
	if err != nil {
		return
	}
	if path != "" {
		if werr := os.WriteFile(path, blob, 0o644); werr != nil {
			fmt.Fprintf(w, "WARNING: flight dump failed: %v\n", werr)
			return
		}
		fmt.Fprintf(w, "flight recorder: %d event(s) (%s) written to %s\n", len(rec.Events()), reason, path)
		return
	}
	if reason == "run complete" {
		return // a clean exit dumps only when a path was asked for
	}
	fmt.Fprintf(w, "flight recorder (%s, last %d event(s)):\n%s\n", reason, len(rec.Events()), blob)
}

// writeTrace writes the run's Chrome/Perfetto JSON: the tracer's spans
// with the memory-ledger counter tracks merged in, so Perfetto draws
// the byte timeline under the same clock — the process ledger at
// PidMem, each device ledger on its own track. Returns the event count.
func writeTrace(path string, tracer *telemetry.Tracer, l *memledger.Ledger, devs []*memledger.Ledger) (int, error) {
	l.Sample()
	tracer.SetProcessName(telemetry.PidMem, "memory (process ledger)")
	for i, d := range devs {
		d.Sample()
		tracer.SetProcessName(telemetry.PidMem+1+i, "memory ("+d.Name()+")")
	}
	evs := tracer.Events()
	evs = append(evs, l.ChromeCounters(telemetry.PidMem, tracer.StartTime())...)
	for i, d := range devs {
		evs = append(evs, d.ChromeCounters(telemetry.PidMem+1+i, tracer.StartTime())...)
	}
	blob, err := telemetry.EncodeChromeJSON(evs)
	if err != nil {
		return 0, err
	}
	return len(evs), os.WriteFile(path, blob, 0o644)
}
