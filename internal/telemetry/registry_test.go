package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("pac_test_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("pac_test_total"); again != c {
		t.Fatal("re-registration returned a different handle")
	}
	g := r.Gauge("pac_test_gauge")
	g.Set(2.5)
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
}

func TestLabelVariantsAreDistinctSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("pac_labeled_total", "kind", "a")
	b := r.Counter("pac_labeled_total", "kind", "b")
	if a == b {
		t.Fatal("different label values share one series")
	}
	// Label order must not matter: key-sorted canonical form.
	x := r.Counter("pac_multi_total", "b", "2", "a", "1")
	y := r.Counter("pac_multi_total", "a", "1", "b", "2")
	if x != y {
		t.Fatal("label order produced distinct series")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("pac_conflict")
	defer func() {
		if recover() == nil {
			t.Fatal("registering one name as counter and gauge did not panic")
		}
	}()
	r.Gauge("pac_conflict")
}

func TestConcurrentRegistryMutation(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 500
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				r.Counter("pac_conc_total").Inc()
				r.Counter("pac_conc_labeled_total", "worker", string(rune('a'+i%4))).Inc()
				r.Gauge("pac_conc_gauge").Set(iters)
				r.Histogram("pac_conc_seconds", nil).Observe(float64(j) / 1000)
				if j%100 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
					_ = r.Vars()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("pac_conc_total").Value(); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := r.Gauge("pac_conc_gauge").Value(); got != iters {
		t.Fatalf("gauge = %v, want %d", got, iters)
	}
	if got := r.Histogram("pac_conc_seconds", nil).Stats().Count; got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty histogram p50 = %v, want 0", q)
	}
	if st := h.Stats(); st.Count != 0 || h.Sum() != 0 {
		t.Fatalf("empty histogram count=%d sum=%v", st.Count, h.Sum())
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(1.5) // lands in (1, 2]
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if v := h.Quantile(q); v <= 1 || v > 2 {
			t.Fatalf("q%v = %v, want within (1, 2]", q, v)
		}
	}
	if h.Sum() != 1.5 {
		t.Fatalf("sum = %v", h.Sum())
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(100) // overflow
	h.Observe(200)
	// Quantiles clamp to the highest finite bound.
	if v := h.Quantile(0.99); v != 2 {
		t.Fatalf("overflow p99 = %v, want 2", v)
	}
	counts, sum, count := h.snapshot()
	if counts[2] != 2 || count != 2 || sum != 300 {
		t.Fatalf("snapshot = %v sum=%v count=%d", counts, sum, count)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(1) // le="1" is inclusive
	counts, _, _ := h.snapshot()
	if counts[0] != 1 {
		t.Fatalf("v=1 landed in bucket %v, want le=1", counts)
	}
	h.Observe(1.0000001)
	counts, _, _ = h.snapshot()
	if counts[1] != 1 {
		t.Fatalf("v just above 1 landed in %v, want le=2", counts)
	}
}

func TestHistogramInfinityBoundDropped(t *testing.T) {
	h := newHistogram([]float64{1, math.Inf(1)})
	if len(h.bounds) != 1 {
		t.Fatalf("explicit +Inf bound kept: %v", h.bounds)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := newHistogram([]float64{10, 20})
	for i := 0; i < 100; i++ {
		h.Observe(5) // all in first bucket
	}
	// Rank 50 of 100 inside [0,10): linear interpolation gives 5.
	if v := h.Quantile(0.5); math.Abs(v-5) > 1e-9 {
		t.Fatalf("p50 = %v, want 5", v)
	}
}

// TestPrometheusGolden pins the exposition format: family ordering by
// name, label escaping, histogram expansion, HELP/TYPE lines.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("pac_b_total", "kind", `quo"te`).Add(3)
	r.Counter("pac_b_total", "kind", "plain").Add(1)
	g := r.Gauge("pac_a_gauge")
	g.Set(1.5)
	h := r.Histogram("pac_c_seconds", []float64{0.5, 1})
	h.Observe(0.2)
	h.Observe(0.7)
	h.Observe(9)
	r.Help("pac_a_gauge", "a test gauge")

	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# HELP pac_a_gauge a test gauge
# TYPE pac_a_gauge gauge
pac_a_gauge 1.5
# TYPE pac_b_total counter
pac_b_total{kind="plain"} 1
pac_b_total{kind="quo\"te"} 3
# TYPE pac_c_seconds histogram
pac_c_seconds_bucket{le="0.5"} 1
pac_c_seconds_bucket{le="1"} 2
pac_c_seconds_bucket{le="+Inf"} 3
pac_c_seconds_sum 9.9
pac_c_seconds_count 3
`
	if sb.String() != want {
		t.Fatalf("prometheus output:\n%s\nwant:\n%s", sb.String(), want)
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := escapeLabel("a\\b\"c\nd"); got != `a\\b\"c\nd` {
		t.Fatalf("escapeLabel = %q", got)
	}
}

func TestVars(t *testing.T) {
	r := NewRegistry()
	r.Counter("pac_v_total").Add(7)
	r.Histogram("pac_v_seconds", []float64{1}).Observe(0.5)
	vars := r.Vars()
	if vars["pac_v_total"] != int64(7) {
		t.Fatalf("vars counter = %v", vars["pac_v_total"])
	}
	hist, ok := vars["pac_v_seconds"].(map[string]interface{})
	if !ok || hist["count"] != int64(1) {
		t.Fatalf("vars histogram = %v", vars["pac_v_seconds"])
	}
}
