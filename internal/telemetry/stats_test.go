package telemetry

import (
	"encoding/json"
	"testing"
)

func TestHistogramStatsTyped(t *testing.T) {
	h := newHistogram([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i%10) + 0.5)
	}
	st := h.Stats()
	if st.Count != 100 {
		t.Fatalf("count %d", st.Count)
	}
	if st.Sum <= 0 {
		t.Fatalf("sum %v", st.Sum)
	}
	if !(st.P50 <= st.P95 && st.P95 <= st.P99) {
		t.Fatalf("percentiles out of order: %+v", st)
	}
	// The typed digest must agree with the map-shaped Summary.
	sum := h.Summary()
	if sum["count"].(int64) != st.Count || sum["p95"].(float64) != st.P95 {
		t.Fatalf("Summary/Stats disagree: %v vs %+v", sum, st)
	}
	// Percentile lookup by name.
	for _, name := range []string{"p50", "p95", "p99"} {
		if _, ok := st.Percentile(name); !ok {
			t.Fatalf("percentile %q not found", name)
		}
	}
	if _, ok := st.Percentile("p999"); ok {
		t.Fatal("unknown percentile accepted")
	}
}

func TestHistStatsJSONRoundTrip(t *testing.T) {
	h := newHistogram(nil)
	h.Observe(0.003)
	h.Observe(0.04)
	h.Observe(1.5)
	st := h.Stats()
	blob, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back HistStats
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back != st {
		t.Fatalf("round trip changed digest: %+v vs %+v", back, st)
	}
	blob2, _ := json.Marshal(back)
	if string(blob) != string(blob2) {
		t.Fatalf("re-encode differs:\n%s\n%s", blob, blob2)
	}
}
