// Package memledger is the byte-accounting layer under the paper's
// memory-efficiency claims (§5 evaluates per-device memory footprint
// next to epoch time): a hierarchical atomic ledger of named accounts
// — pool.inuse, pool.free, acache, checkpoint.buffers, serve.inflight,
// parallel.frames, generate.kv, autograd.tape — each tracking current
// bytes, lifetime peak (high-watermark), and reserve/release counts.
// The instrumented subsystems mirror their allocation lifecycles into
// accounts on the process-wide Default ledger; pac-train additionally
// gives each simulated device its own ledger so the paper's per-device
// memory table is reproducible live.
//
// A ledger can be armed with a byte budget (SetBudget): the running
// total is compared against warn/critical watermark fractions on every
// movement, and each *upward crossing* fires exactly once — a warn
// crossing bumps a counter and records a flight-recorder event, a
// critical crossing additionally invokes OnPressure subscribers (the
// activation cache and adapter paths subscribe for shedding). The
// level relaxes automatically as bytes are released, re-arming the
// next crossing.
//
// Everything is nil-safe in the telemetry/health tradition: a nil
// *Ledger or nil *Account is a no-op sink, so instrumented code wires
// accounts unconditionally and pays one predictable branch when
// accounting is off.
package memledger

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"pac/internal/health"
	"pac/internal/telemetry"
)

// Level is the ledger's pressure state, derived from the running total
// against the armed budget watermarks.
type Level int32

const (
	// LevelOK: below the warn watermark (or no budget armed).
	LevelOK Level = iota
	// LevelWarn: at or above budget*warnFrac.
	LevelWarn
	// LevelCritical: at or above budget*critFrac.
	LevelCritical
)

func (l Level) String() string {
	switch l {
	case LevelWarn:
		return "warn"
	case LevelCritical:
		return "critical"
	default:
		return "ok"
	}
}

// Account is one named byte account inside a Ledger. All methods are
// atomic and safe on a nil receiver (no-op), so hot paths reserve and
// release unconditionally.
type Account struct {
	name string
	l    *Ledger

	cur      atomic.Int64
	peak     atomic.Int64
	reserves atomic.Int64
	releases atomic.Int64
}

// Reserve records n bytes entering the account (n ≤ 0 is a no-op).
func (a *Account) Reserve(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.reserves.Add(1)
	a.add(n)
}

// Release records n bytes leaving the account (n ≤ 0 is a no-op).
func (a *Account) Release(n int64) {
	if a == nil || n <= 0 {
		return
	}
	a.releases.Add(1)
	a.add(-n)
}

// Add shifts the account by a signed delta without bumping the
// reserve/release counts — for paths that maintain a running size
// (cache replacing an entry) rather than discrete checkout/return.
func (a *Account) Add(delta int64) {
	if a == nil || delta == 0 {
		return
	}
	a.add(delta)
}

func (a *Account) add(delta int64) {
	cur := a.cur.Add(delta)
	if delta > 0 {
		for {
			p := a.peak.Load()
			if cur <= p || a.peak.CompareAndSwap(p, cur) {
				break
			}
		}
	}
	a.l.noteTotal(a.l.total.Add(delta))
}

// Bytes returns the current account balance.
func (a *Account) Bytes() int64 {
	if a == nil {
		return 0
	}
	return a.cur.Load()
}

// Peak returns the lifetime high-watermark.
func (a *Account) Peak() int64 {
	if a == nil {
		return 0
	}
	return a.peak.Load()
}

// Counts returns the lifetime reserve and release call counts.
func (a *Account) Counts() (reserves, releases int64) {
	if a == nil {
		return 0, 0
	}
	return a.reserves.Load(), a.releases.Load()
}

// Ledger is a set of named accounts plus a running total with budget
// watermarks. Account handles are resolved once and mutate lock-free;
// the ledger lock guards only account creation and snapshotting.
type Ledger struct {
	name string

	mu       sync.RWMutex
	accounts map[string]*Account

	total     atomic.Int64
	totalPeak atomic.Int64

	budget   atomic.Int64  // 0 = unarmed
	warnBits atomic.Uint64 // float64 bits of the warn fraction
	critBits atomic.Uint64 // float64 bits of the critical fraction
	level    atomic.Int32  // current Level; CAS transitions

	warnCross atomic.Int64 // upward warn crossings
	critCross atomic.Int64 // upward critical crossings

	subMu sync.RWMutex
	subs  []func(level Level, total, budget int64)

	// push-model pressure counters, wired by ExportTo (nil until then)
	warnCounter atomic.Pointer[telemetry.Counter]
	critCounter atomic.Pointer[telemetry.Counter]

	timeline timeline
}

// New returns an empty ledger. name labels exported metrics and the
// /debug/mem payload; the process-wide Default ledger uses "".
func New(name string) *Ledger {
	l := &Ledger{name: name, accounts: map[string]*Account{}}
	l.warnBits.Store(math.Float64bits(DefaultWarnFrac))
	l.critBits.Store(math.Float64bits(DefaultCritFrac))
	return l
}

// Default watermark fractions for an armed budget.
const (
	DefaultWarnFrac = 0.75
	DefaultCritFrac = 0.90
)

var defaultLedger = New("")

// Default returns the process-wide ledger the instrumented subsystems
// account into.
func Default() *Ledger { return defaultLedger }

// Name returns the ledger's name, "process" for the unnamed default.
func (l *Ledger) Name() string {
	if l == nil || l.name == "" {
		return "process"
	}
	return l.name
}

// Account returns (creating if needed) the named account. nil-safe:
// a nil ledger yields a nil account, itself a no-op sink.
func (l *Ledger) Account(name string) *Account {
	if l == nil {
		return nil
	}
	l.mu.RLock()
	a := l.accounts[name]
	l.mu.RUnlock()
	if a != nil {
		return a
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if a = l.accounts[name]; a == nil {
		a = &Account{name: name, l: l}
		l.accounts[name] = a
	}
	return a
}

// Total returns the ledger-wide byte balance (sum over accounts).
func (l *Ledger) Total() int64 {
	if l == nil {
		return 0
	}
	return l.total.Load()
}

// TotalPeak returns the high-watermark of the ledger-wide total. Note
// this is the peak of the *sum*, not the sum of per-account peaks
// (accounts rarely peak simultaneously).
func (l *Ledger) TotalPeak() int64 {
	if l == nil {
		return 0
	}
	return l.totalPeak.Load()
}

// SetBudget arms (budget > 0) or disarms (budget ≤ 0) the pressure
// watermarks. Fractions outside (0,1] fall back to the defaults; a
// critical fraction below warn is raised to it. Arming re-evaluates
// the current total immediately, so a ledger already over the
// watermark fires on the spot.
func (l *Ledger) SetBudget(budget int64, warnFrac, critFrac float64) {
	if l == nil {
		return
	}
	if warnFrac <= 0 || warnFrac > 1 {
		warnFrac = DefaultWarnFrac
	}
	if critFrac <= 0 || critFrac > 1 {
		critFrac = DefaultCritFrac
	}
	if critFrac < warnFrac {
		critFrac = warnFrac
	}
	if budget < 0 {
		budget = 0
	}
	l.warnBits.Store(math.Float64bits(warnFrac))
	l.critBits.Store(math.Float64bits(critFrac))
	l.budget.Store(budget)
	l.noteTotal(l.total.Load())
}

// Budget returns the armed budget in bytes (0 = unarmed) and the
// warn/critical watermark fractions.
func (l *Ledger) Budget() (budget int64, warnFrac, critFrac float64) {
	if l == nil {
		return 0, DefaultWarnFrac, DefaultCritFrac
	}
	return l.budget.Load(),
		math.Float64frombits(l.warnBits.Load()),
		math.Float64frombits(l.critBits.Load())
}

// Level returns the current pressure level.
func (l *Ledger) Level() Level {
	if l == nil {
		return LevelOK
	}
	return Level(l.level.Load())
}

// Crossings returns how many times the total has crossed *upward* into
// the warn and critical bands since the ledger was created.
func (l *Ledger) Crossings() (warn, critical int64) {
	if l == nil {
		return 0, 0
	}
	return l.warnCross.Load(), l.critCross.Load()
}

// OnPressure subscribes fn to upward pressure crossings. fn runs
// synchronously on the goroutine whose Reserve crossed the watermark
// — it must be fast and must not reserve into the same ledger (a
// shedding hook releases, which is always safe).
func (l *Ledger) OnPressure(fn func(level Level, total, budget int64)) {
	if l == nil || fn == nil {
		return
	}
	l.subMu.Lock()
	l.subs = append(l.subs, fn)
	l.subMu.Unlock()
}

// levelFor derives the pressure level for a total under the current
// budget configuration.
func (l *Ledger) levelFor(total int64) Level {
	b := l.budget.Load()
	if b <= 0 {
		return LevelOK
	}
	fb := float64(b)
	if float64(total) >= fb*math.Float64frombits(l.critBits.Load()) {
		return LevelCritical
	}
	if float64(total) >= fb*math.Float64frombits(l.warnBits.Load()) {
		return LevelWarn
	}
	return LevelOK
}

// noteTotal folds a new ledger total into the peak and the pressure
// state machine. The level transition is a CAS, so a crossing fires
// exactly once no matter how many goroutines race past the watermark;
// downward transitions relax silently, re-arming the next crossing.
func (l *Ledger) noteTotal(total int64) {
	for {
		p := l.totalPeak.Load()
		if total <= p || l.totalPeak.CompareAndSwap(p, total) {
			break
		}
	}
	if l.budget.Load() <= 0 {
		// Fast path: unarmed ledgers skip the level machinery but still
		// normalize a stale level left over from a disarmed budget.
		if l.level.Load() != int32(LevelOK) {
			l.level.Store(int32(LevelOK))
		}
		return
	}
	for {
		old := Level(l.level.Load())
		next := l.levelFor(total)
		if next == old {
			return
		}
		if !l.level.CompareAndSwap(int32(old), int32(next)) {
			continue // lost a race; re-read and re-derive
		}
		if next > old {
			// Fire each band entered by this upward transition (an
			// OK→Critical jump crosses warn too).
			if old < LevelWarn && next >= LevelWarn {
				l.fire(LevelWarn, total)
			}
			if old < LevelCritical && next >= LevelCritical {
				l.fire(LevelCritical, total)
			}
		}
		return
	}
}

// fire records one upward crossing: crossing counter, flight-recorder
// event, optional telemetry counter, and (critical only) the
// OnPressure subscribers.
func (l *Ledger) fire(lv Level, total int64) {
	budget := l.budget.Load()
	detail := fmt.Sprintf("%s %s %d/%d", l.Name(), lv, total, budget)
	health.Flight().Record("mem-pressure", -1, -1, detail, float64(total))
	switch lv {
	case LevelWarn:
		l.warnCross.Add(1)
		if c := l.warnCounter.Load(); c != nil {
			c.Inc()
		}
	case LevelCritical:
		l.critCross.Add(1)
		if c := l.critCounter.Load(); c != nil {
			c.Inc()
		}
		l.subMu.RLock()
		subs := l.subs
		l.subMu.RUnlock()
		for _, fn := range subs {
			fn(lv, total, budget)
		}
	}
}

// AccountSnapshot is one account's state in a Snapshot.
type AccountSnapshot struct {
	Account   string `json:"account"`
	Bytes     int64  `json:"bytes"`
	PeakBytes int64  `json:"peak_bytes"`
	Reserves  int64  `json:"reserves"`
	Releases  int64  `json:"releases"`
}

// Snapshot is a point-in-time view of a ledger: totals, budget state,
// and every account sorted by name. It is the JSON shape /debug/mem
// serves.
type Snapshot struct {
	Ledger            string            `json:"ledger"`
	TotalBytes        int64             `json:"total_bytes"`
	PeakBytes         int64             `json:"peak_bytes"`
	BudgetBytes       int64             `json:"budget_bytes"`
	WarnBytes         int64             `json:"warn_bytes"`
	CriticalBytes     int64             `json:"critical_bytes"`
	Level             string            `json:"level"`
	WarnCrossings     int64             `json:"warn_crossings"`
	CriticalCrossings int64             `json:"critical_crossings"`
	Accounts          []AccountSnapshot `json:"accounts"`
}

// Snapshot captures the ledger state (nil-safe: an empty snapshot).
func (l *Ledger) Snapshot() Snapshot {
	if l == nil {
		return Snapshot{Ledger: "process", Level: LevelOK.String(), Accounts: []AccountSnapshot{}}
	}
	budget, warnFrac, critFrac := l.Budget()
	s := Snapshot{
		Ledger:      l.Name(),
		TotalBytes:  l.Total(),
		PeakBytes:   l.TotalPeak(),
		BudgetBytes: budget,
		Level:       l.Level().String(),
	}
	if budget > 0 {
		s.WarnBytes = int64(float64(budget) * warnFrac)
		s.CriticalBytes = int64(float64(budget) * critFrac)
	}
	s.WarnCrossings, s.CriticalCrossings = l.Crossings()
	l.mu.RLock()
	accts := make([]*Account, 0, len(l.accounts))
	for _, a := range l.accounts {
		accts = append(accts, a)
	}
	l.mu.RUnlock()
	sort.Slice(accts, func(i, j int) bool { return accts[i].name < accts[j].name })
	s.Accounts = make([]AccountSnapshot, 0, len(accts))
	for _, a := range accts {
		res, rel := a.Counts()
		s.Accounts = append(s.Accounts, AccountSnapshot{
			Account: a.name, Bytes: a.Bytes(), PeakBytes: a.Peak(),
			Reserves: res, Releases: rel,
		})
	}
	return s
}

// ExportTo bridges the ledger onto a telemetry registry: an OnScrape
// hook refreshes pac_mem_bytes{account=...} and
// pac_mem_peak_bytes{account=...} gauges (named ledgers add a
// ledger=... label so device views coexist with the process view),
// and pressure crossings increment
// pac_mem_pressure_total{level=warn|critical}.
func (l *Ledger) ExportTo(reg *telemetry.Registry) {
	if l == nil || reg == nil {
		return
	}
	var lbl []string
	if l.name != "" {
		lbl = []string{"ledger", l.name}
	}
	reg.Help("pac_mem_bytes", "Current bytes per memory-ledger account.")
	reg.Help("pac_mem_peak_bytes", "Lifetime peak bytes per memory-ledger account.")
	reg.Help("pac_mem_pressure_total", "Upward watermark crossings by pressure level.")
	l.warnCounter.Store(reg.Counter("pac_mem_pressure_total", append([]string{"level", "warn"}, lbl...)...))
	l.critCounter.Store(reg.Counter("pac_mem_pressure_total", append([]string{"level", "critical"}, lbl...)...))

	// Gauge handles are resolved lazily per account (accounts can appear
	// after ExportTo) and cached across scrapes.
	type pair struct{ cur, peak *telemetry.Gauge }
	gauges := map[string]pair{}
	reg.OnScrape(func() {
		for _, a := range l.Snapshot().Accounts {
			p, ok := gauges[a.Account]
			if !ok {
				labels := append([]string{"account", a.Account}, lbl...)
				p = pair{
					cur:  reg.Gauge("pac_mem_bytes", labels...),
					peak: reg.Gauge("pac_mem_peak_bytes", labels...),
				}
				gauges[a.Account] = p
			}
			p.cur.Set(float64(a.Bytes))
			p.peak.Set(float64(a.PeakBytes))
		}
	})
}

// ParseBytes parses a human byte size: a plain integer is bytes;
// KB/MB/GB are decimal multiples; KiB/MiB/GiB binary. Used by the
// -mem-budget flags.
func ParseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(s)
	for _, suf := range []struct {
		tag string
		m   int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1e3}, {"MB", 1e6}, {"GB", 1e9}, {"B", 1},
	} {
		if strings.HasSuffix(upper, suf.tag) {
			mult = suf.m
			s = strings.TrimSpace(s[:len(s)-len(suf.tag)])
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("memledger: bad byte size %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("memledger: negative byte size %q", s)
	}
	return int64(v * float64(mult)), nil
}
