package telemetry

import (
	"io"
	"strings"
	"sync"
	"testing"
)

// TestOnScrapeConcurrentRegistration registers hooks from many
// goroutines while scrapes are actively running — the append-under-
// lock / snapshot-then-run protocol must hold under -race, and hooks
// that register new series mid-scrape must not deadlock.
func TestOnScrapeConcurrentRegistration(t *testing.T) {
	reg := NewRegistry()
	const registrars, scrapers, rounds = 4, 4, 50

	var wg sync.WaitGroup
	for w := 0; w < registrars; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				g := reg.Gauge("hook_gauge", "w", string(rune('a'+w)))
				reg.OnScrape(func() { g.Set(1) })
			}
		}()
	}
	for w := 0; w < scrapers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				reg.WritePrometheus(io.Discard)
				_ = reg.Vars()
			}
		}()
	}
	wg.Wait()

	// Every registered hook runs on a final scrape.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "hook_gauge") {
		t.Fatalf("hook-registered gauge missing:\n%s", sb.String())
	}
	if n := reg.HookPanics(); n != 0 {
		t.Fatalf("HookPanics = %d, want 0", n)
	}
}

// TestOnScrapeHookPanicIsolation proves a panicking hook cannot break
// the scrape: later hooks still run, the exposition completes, and the
// panic is counted.
func TestOnScrapeHookPanicIsolation(t *testing.T) {
	reg := NewRegistry()
	ran := []string{}
	reg.OnScrape(func() { ran = append(ran, "first") })
	reg.OnScrape(func() { panic("bridge broke") })
	reg.OnScrape(func() { ran = append(ran, "last") })
	reg.Counter("survives_total").Inc()

	var sb strings.Builder
	reg.WritePrometheus(&sb) // must not panic

	if got := strings.Join(ran, ","); got != "first,last" {
		t.Fatalf("hooks ran = %q, want first,last", got)
	}
	if !strings.Contains(sb.String(), "survives_total 1") {
		t.Fatalf("exposition incomplete after hook panic:\n%s", sb.String())
	}
	if n := reg.HookPanics(); n != 1 {
		t.Fatalf("HookPanics = %d, want 1", n)
	}

	// Vars goes through the same isolation.
	_ = reg.Vars()
	if n := reg.HookPanics(); n != 2 {
		t.Fatalf("HookPanics after Vars = %d, want 2", n)
	}
}
