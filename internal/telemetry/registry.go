// Package telemetry is the runtime observability layer: a
// dependency-free metrics registry (counters, gauges, histograms with
// configurable buckets; lock-free hot path) with Prometheus text-format
// and JSON exposition, a low-overhead wall-clock span tracer emitting
// the same Chrome/Perfetto JSON the simulator produces, and a debug
// HTTP mux (/metrics, /debug/vars, /debug/pprof/*). The paper's claims
// are all about time and memory (§5: epoch duration, per-device memory,
// cache savings); this package is how a *real* run answers "where did
// the epoch time go" — compute vs. communication vs. cache vs.
// recovery — instead of only the simulator.
//
// Instrumented packages cache metric handles at init from the shared
// Default registry; serving code that needs per-instance counts (e.g.
// serve.Server) builds its own Registry.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 metric that can move in both directions.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// kind discriminates registered metric types; a name maps to exactly
// one kind across all its label variants.
type kind int

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one registered (name, labels) time series.
type series struct {
	name   string
	labels []string // k1,v1,k2,v2 — sorted by key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// labelString renders the label set as {k="v",...} with extra appended
// last (histogram le). Empty labels and empty extra yield "".
func labelString(labels []string, extra ...string) string {
	all := append(append([]string(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(all); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(all[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(all[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the Prometheus label-value escapes: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// Registry holds named metric series. Registration is locked;
// registered handles mutate lock-free, so callers should resolve their
// Counter/Gauge/Histogram once (package init, struct field) and reuse
// it on the hot path.
type Registry struct {
	mu     sync.RWMutex
	series map[string]*series // key: name + canonical label string
	kinds  map[string]kind    // name → kind (one kind per family)
	help   map[string]string
	hooks  []func() // run before each exposition (see OnScrape)

	hookPanics atomic.Int64 // scrape hooks recovered from (see runHooks)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series: map[string]*series{},
		kinds:  map[string]kind{},
		help:   map[string]string{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry the instrumented training
// and runtime packages register into.
func Default() *Registry { return defaultRegistry }

// canonLabels validates and key-sorts a flat k,v,k,v label list.
func canonLabels(name string, labels []string) []string {
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("telemetry: metric %q: odd label list %v", name, labels))
	}
	if len(labels) == 0 {
		return nil
	}
	out := append([]string(nil), labels...)
	// Insertion sort by key: label sets are tiny.
	for i := 2; i < len(out); i += 2 {
		for j := i; j >= 2 && out[j] < out[j-2]; j -= 2 {
			out[j], out[j-2] = out[j-2], out[j]
			out[j+1], out[j-1] = out[j-1], out[j+1]
		}
	}
	return out
}

// register returns the series for (name, labels), creating it — handle
// included, before any scrape can see it — when new. buckets matter only
// to a new histogram. Re-registering an existing series returns the same
// handle; using one name with two different kinds is a programming error
// and panics.
func (r *Registry) register(name string, k kind, buckets []float64, labels []string) *series {
	labels = canonLabels(name, labels)
	key := name + labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.kinds[name]; ok && existing != k {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, existing, k))
	}
	r.kinds[name] = k
	if s, ok := r.series[key]; ok {
		return s
	}
	s := &series{name: name, labels: labels}
	switch k {
	case counterKind:
		s.c = &Counter{}
	case gaugeKind:
		s.g = &Gauge{}
	case histogramKind:
		s.h = newHistogram(buckets)
	}
	r.series[key] = s
	return s
}

// Counter returns (registering if needed) the counter series for name
// and the flat key,value label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.register(name, counterKind, nil, labels).c
}

// Gauge returns (registering if needed) the gauge series.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.register(name, gaugeKind, nil, labels).g
}

// Histogram returns (registering if needed) the histogram series. nil
// buckets use defBuckets. The bucket layout of an already-registered
// series wins; later bucket arguments are ignored.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	return r.register(name, histogramKind, buckets, labels).h
}

// OnScrape registers fn to run at the start of every exposition
// (WritePrometheus, Vars), before the series snapshot is taken. It is
// the pull-model bridge for sources whose state lives outside the
// registry — e.g. the tensor pool counters and runtime.MemStats — so
// they are sampled only when someone actually looks. Hooks must be
// fast and must not call back into exposition.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, fn)
	r.mu.Unlock()
}

// runHooks invokes the registered scrape hooks outside the lock. A
// panicking hook is isolated: the remaining hooks still run and the
// scrape completes — one broken bridge (a pool stats source, a ledger
// exporter) must not take down every /metrics endpoint in the process.
// Recovered panics are counted (HookPanics) rather than registered as
// a metric series, so golden-exposition tests stay byte-stable.
func (r *Registry) runHooks() {
	r.mu.RLock()
	hooks := r.hooks
	r.mu.RUnlock()
	for _, fn := range hooks {
		r.runHook(fn)
	}
}

func (r *Registry) runHook(fn func()) {
	defer func() {
		if recover() != nil {
			r.hookPanics.Add(1)
		}
	}()
	fn()
}

// HookPanics returns how many OnScrape hook invocations have panicked
// and been recovered.
func (r *Registry) HookPanics() int64 { return r.hookPanics.Load() }

// Help attaches a # HELP line to a metric family.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// snapshotSeries returns the registered series sorted by family name
// then label string — the stable exposition order.
func (r *Registry) snapshotSeries() []*series {
	r.mu.RLock()
	out := make([]*series, 0, len(r.series))
	for _, s := range r.series {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return labelString(out[i].labels) < labelString(out[j].labels)
	})
	return out
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every series in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, series
// by label string, histograms expanded into cumulative _bucket series
// plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.runHooks()
	all := r.snapshotSeries()
	r.mu.RLock()
	kinds := make(map[string]kind, len(r.kinds))
	for n, k := range r.kinds {
		kinds[n] = k
	}
	help := make(map[string]string, len(r.help))
	for n, h := range r.help {
		help[n] = h
	}
	r.mu.RUnlock()

	lastFamily := ""
	for _, s := range all {
		if s.name != lastFamily {
			lastFamily = s.name
			if h, ok := help[s.name]; ok {
				fmt.Fprintf(w, "# HELP %s %s\n", s.name, h)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", s.name, kinds[s.name])
		}
		switch {
		case s.c != nil:
			fmt.Fprintf(w, "%s%s %d\n", s.name, labelString(s.labels), s.c.Value())
		case s.g != nil:
			fmt.Fprintf(w, "%s%s %s\n", s.name, labelString(s.labels), formatFloat(s.g.Value()))
		case s.h != nil:
			counts, sum, count := s.h.snapshot()
			cum := int64(0)
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(s.h.bounds) {
					le = formatFloat(s.h.bounds[i])
				}
				fmt.Fprintf(w, "%s_bucket%s %d\n", s.name, labelString(s.labels, "le", le), cum)
			}
			fmt.Fprintf(w, "%s_sum%s %s\n", s.name, labelString(s.labels), formatFloat(sum))
			fmt.Fprintf(w, "%s_count%s %d\n", s.name, labelString(s.labels), count)
		}
	}
}

// Vars returns the registry contents as a JSON-marshalable map — the
// /debug/vars payload. Histograms carry count/sum/quantiles and the
// cumulative bucket counts.
func (r *Registry) Vars() map[string]interface{} {
	r.runHooks()
	out := map[string]interface{}{}
	for _, s := range r.snapshotSeries() {
		key := s.name + labelString(s.labels)
		switch {
		case s.c != nil:
			out[key] = s.c.Value()
		case s.g != nil:
			out[key] = s.g.Value()
		case s.h != nil:
			out[key] = s.h.Summary()
		}
	}
	return out
}
