package memledger

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"pac/internal/health"
	"pac/internal/telemetry"
)

func TestAccountBasics(t *testing.T) {
	l := New("dev0")
	a := l.Account("pool.inuse")
	b := l.Account("acache")

	a.Reserve(100)
	a.Reserve(50)
	b.Reserve(30)
	a.Release(60)

	if got := a.Bytes(); got != 90 {
		t.Fatalf("a.Bytes = %d, want 90", got)
	}
	if got := a.Peak(); got != 150 {
		t.Fatalf("a.Peak = %d, want 150", got)
	}
	res, rel := a.Counts()
	if res != 2 || rel != 1 {
		t.Fatalf("a.Counts = (%d,%d), want (2,1)", res, rel)
	}
	if got := l.Total(); got != 120 {
		t.Fatalf("l.Total = %d, want 120", got)
	}
	if got := l.TotalPeak(); got != 180 {
		t.Fatalf("l.TotalPeak = %d, want 180", got)
	}
	// Same name yields the same handle.
	if l.Account("pool.inuse") != a {
		t.Fatal("Account not idempotent")
	}
	// Add is signed and does not bump reserve/release counts.
	b.Add(-10)
	if got := b.Bytes(); got != 20 {
		t.Fatalf("b.Bytes after Add(-10) = %d, want 20", got)
	}
	if res, rel := b.Counts(); res != 1 || rel != 0 {
		t.Fatalf("b.Counts after Add = (%d,%d), want (1,0)", res, rel)
	}
}

func TestNilSafety(t *testing.T) {
	var l *Ledger
	var a *Account
	a.Reserve(10)
	a.Release(10)
	a.Add(-5)
	if a.Bytes() != 0 || a.Peak() != 0 {
		t.Fatal("nil account not a no-op")
	}
	if l.Account("x") != nil {
		t.Fatal("nil ledger should yield nil account")
	}
	l.SetBudget(100, 0.5, 0.9)
	l.Sample()
	l.OnPressure(func(Level, int64, int64) {})
	if l.Total() != 0 || l.Level() != LevelOK || l.Name() != "process" {
		t.Fatal("nil ledger accessors wrong")
	}
	if got := l.Timeline(); got != nil {
		t.Fatalf("nil Timeline = %v", got)
	}
	stop := l.StartSampler(time.Millisecond)
	stop()
	s := l.Snapshot()
	if s.Ledger != "process" || len(s.Accounts) != 0 {
		t.Fatalf("nil Snapshot = %+v", s)
	}
}

// TestPressureExactlyOncePerCrossing is the acceptance-criterion test:
// an armed budget fires the critical signal exactly once per upward
// crossing, records a flight-recorder event, and re-arms after the
// total relaxes below the watermark.
func TestPressureExactlyOncePerCrossing(t *testing.T) {
	rec := health.Enable(64)
	defer health.Disable()

	l := New("budgeted")
	var mu sync.Mutex
	var fired []Level
	l.OnPressure(func(lv Level, total, budget int64) {
		mu.Lock()
		fired = append(fired, lv)
		mu.Unlock()
		if budget != 1000 {
			t.Errorf("callback budget = %d, want 1000", budget)
		}
	})
	l.SetBudget(1000, 0.5, 0.9)
	a := l.Account("generate.kv")

	// Climb into warn only: counter moves, no critical callback.
	a.Reserve(600)
	if l.Level() != LevelWarn {
		t.Fatalf("level = %v, want warn", l.Level())
	}
	warn, crit := l.Crossings()
	if warn != 1 || crit != 0 {
		t.Fatalf("crossings = (%d,%d), want (1,0)", warn, crit)
	}

	// Cross critical; more reserves above the watermark must not re-fire.
	a.Reserve(350)
	a.Reserve(10)
	a.Reserve(10)
	if l.Level() != LevelCritical {
		t.Fatalf("level = %v, want critical", l.Level())
	}
	warn, crit = l.Crossings()
	if warn != 1 || crit != 1 {
		t.Fatalf("crossings = (%d,%d), want (1,1)", warn, crit)
	}
	mu.Lock()
	nFired := len(fired)
	mu.Unlock()
	if nFired != 1 {
		t.Fatalf("critical callback fired %d times, want 1", nFired)
	}

	// Relax below warn, then cross again: exactly one more of each.
	a.Release(800)
	if l.Level() != LevelOK {
		t.Fatalf("level after release = %v, want ok", l.Level())
	}
	a.Reserve(900) // 170 + 900 = 1070: one jump straight through both bands
	warn, crit = l.Crossings()
	if warn != 2 || crit != 2 {
		t.Fatalf("crossings after re-cross = (%d,%d), want (2,2)", warn, crit)
	}
	mu.Lock()
	nFired = len(fired)
	mu.Unlock()
	if nFired != 2 {
		t.Fatalf("critical callback fired %d times total, want 2", nFired)
	}

	// Flight recorder saw the crossings: 2 warn + 2 critical events.
	var memEvents int
	for _, ev := range rec.Events() {
		if ev.Kind == "mem-pressure" {
			memEvents++
		}
	}
	if memEvents != 4 {
		t.Fatalf("flight mem-pressure events = %d, want 4", memEvents)
	}
}

func TestSetBudgetFiresOnArm(t *testing.T) {
	l := New("late-arm")
	l.Account("x").Reserve(500)
	if l.Level() != LevelOK {
		t.Fatal("unarmed ledger should be ok")
	}
	l.SetBudget(400, 0.5, 0.9) // already over critical at arm time
	if l.Level() != LevelCritical {
		t.Fatalf("level after arming under water = %v, want critical", l.Level())
	}
	warn, crit := l.Crossings()
	if warn != 1 || crit != 1 {
		t.Fatalf("crossings = (%d,%d), want (1,1)", warn, crit)
	}
	// Disarming relaxes the level on the next movement.
	l.SetBudget(0, 0, 0)
	if l.Level() != LevelOK {
		t.Fatalf("level after disarm = %v, want ok", l.Level())
	}
}

func TestConcurrentAccounting(t *testing.T) {
	l := New("race")
	l.SetBudget(1<<20, 0.5, 0.9)
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := l.Account([]string{"a", "b", "c", "d"}[w%4])
			for i := 0; i < rounds; i++ {
				a.Reserve(128)
				a.Release(128)
			}
		}()
	}
	wg.Wait()
	if got := l.Total(); got != 0 {
		t.Fatalf("total after balanced ops = %d, want 0", got)
	}
	for _, a := range l.Snapshot().Accounts {
		if a.Bytes != 0 {
			t.Fatalf("account %s = %d bytes, want 0", a.Account, a.Bytes)
		}
		if a.PeakBytes < 128 {
			t.Fatalf("account %s peak = %d, want ≥ 128", a.Account, a.PeakBytes)
		}
	}
}

func TestTimelineRing(t *testing.T) {
	l := New("ring")
	a := l.Account("x")
	base := time.Unix(1000, 0)
	const over = 6 // samples past the ring's capacity
	for i := 0; i < DefaultTimelineCap+over; i++ {
		a.Reserve(1)
		l.SampleAt(base.Add(time.Duration(i) * time.Second))
	}
	got := l.Timeline()
	if len(got) != DefaultTimelineCap {
		t.Fatalf("timeline kept %d samples, want %d", len(got), DefaultTimelineCap)
	}
	for i, s := range got {
		wantT := base.Add(time.Duration(over+i) * time.Second).UnixNano()
		if s.T != wantT {
			t.Fatalf("sample %d: t = %d, want %d (oldest-first after wrap)", i, s.T, wantT)
		}
		if s.Accounts["x"] != int64(over+1+i) {
			t.Fatalf("sample %d: x = %d, want %d", i, s.Accounts["x"], over+1+i)
		}
	}
}

func TestSamplerRuns(t *testing.T) {
	l := New("sampled")
	l.Account("x").Reserve(42)
	stop := l.StartSampler(time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for len(l.Timeline()) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	if len(l.Timeline()) == 0 {
		t.Fatal("sampler recorded nothing")
	}
}

func TestHandlerJSON(t *testing.T) {
	l := New("web")
	l.SetBudget(1000, 0.5, 0.9)
	l.Account("pool.inuse").Reserve(600)
	dev := New("dev1")
	dev.Account("pipeline.activations").Reserve(7)

	h := Handler(l, func() []*Ledger { return []*Ledger{dev} })
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/mem", nil))
	if rr.Code != 200 {
		t.Fatalf("status %d", rr.Code)
	}
	var d memDump
	if err := json.Unmarshal(rr.Body.Bytes(), &d); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if d.Ledger != "web" || d.TotalBytes != 600 || d.Level != "warn" {
		t.Fatalf("dump = %+v", d.Snapshot)
	}
	if d.BudgetBytes != 1000 || d.WarnBytes != 500 || d.CriticalBytes != 900 {
		t.Fatalf("budget fields = %d/%d/%d", d.BudgetBytes, d.WarnBytes, d.CriticalBytes)
	}
	if len(d.Accounts) != 1 || d.Accounts[0].Account != "pool.inuse" {
		t.Fatalf("accounts = %+v", d.Accounts)
	}
	if len(d.Timeline.Samples) == 0 {
		t.Fatal("handler should sample at least once")
	}
	if len(d.Devices) != 1 || d.Devices[0].Ledger != "dev1" || d.Devices[0].TotalBytes != 7 {
		t.Fatalf("devices = %+v", d.Devices)
	}

	// Chrome counter format.
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/mem?format=chrome", nil))
	var evs []telemetry.ChromeEvent
	if err := json.Unmarshal(rr.Body.Bytes(), &evs); err != nil {
		t.Fatalf("bad chrome JSON: %v", err)
	}
	if len(evs) == 0 {
		t.Fatal("no counter events")
	}
	for _, ev := range evs {
		if ev.Ph != "C" {
			t.Fatalf("event ph = %q, want C", ev.Ph)
		}
	}
}

func TestExportTo(t *testing.T) {
	reg := telemetry.NewRegistry()
	l := New("dev2")
	l.ExportTo(reg)
	l.Account("acache").Reserve(64)
	l.Account("acache").Reserve(64)
	l.Account("acache").Release(32)

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`pac_mem_bytes{account="acache",ledger="dev2"} 96`,
		`pac_mem_peak_bytes{account="acache",ledger="dev2"} 128`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q in:\n%s", want, out)
		}
	}

	// Pressure crossings reach the registry counter.
	l.SetBudget(100, 0.5, 0.9)
	sb.Reset()
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `pac_mem_pressure_total{ledger="dev2",level="critical"} 1`) {
		t.Fatalf("pressure counter missing in:\n%s", sb.String())
	}
}

func TestChromeCountersEpoch(t *testing.T) {
	l := New("trace")
	l.Account("x").Reserve(10)
	epoch := time.Unix(5000, 0)
	l.SampleAt(epoch.Add(-time.Second)) // pre-trace: dropped
	l.SampleAt(epoch.Add(2 * time.Second))
	evs := l.ChromeCounters(3, epoch)
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1 (pre-epoch sample dropped)", len(evs))
	}
	if evs[0].Ts != 2e6 || evs[0].Pid != 3 || evs[0].Args["x"] != int64(10) {
		t.Fatalf("event = %+v", evs[0])
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"":       0,
		"1024":   1024,
		"64MiB":  64 << 20,
		"2KiB":   2048,
		"1GiB":   1 << 30,
		"1.5KB":  1500,
		"10MB":   10e6,
		"2GB":    2e9,
		"100B":   100,
		" 512 ":  512,
		"0.5MiB": 512 << 10,
	}
	for in, want := range cases {
		got, err := ParseBytes(in)
		if err != nil {
			t.Fatalf("ParseBytes(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseBytes(%q) = %d, want %d", in, got, want)
		}
	}
	for _, bad := range []string{"abc", "-1", "12XB"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Fatalf("ParseBytes(%q) should fail", bad)
		}
	}
}
