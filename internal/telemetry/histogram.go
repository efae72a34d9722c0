package telemetry

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram buckets observations by configurable upper bounds (the
// Prometheus cumulative-le model) and tracks total sum and count.
// Observe is lock-free: one atomic add per bucket/count plus a CAS loop
// for the float sum.
type Histogram struct {
	bounds []float64 // sorted finite upper bounds
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Int64
	// exemplars[i] holds the most recent sampled trace ID observed in
	// bucket i (0 = none), so a latency bucket links straight to a
	// causal trace. Written by ObserveTrace, plain atomic store.
	exemplars []atomic.Uint64
}

// defBuckets are the default duration buckets in seconds: 1 ms to 10 s,
// roughly ×2.5 per step — sized for training steps, collectives, cache
// I/O and snapshot writes alike.
func defBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// ExpBuckets returns n buckets growing geometrically from start by
// factor.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

func newHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = defBuckets()
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	// Drop a trailing +Inf: the overflow bucket is implicit.
	for len(bounds) > 0 && math.IsInf(bounds[len(bounds)-1], 1) {
		bounds = bounds[:len(bounds)-1]
	}
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v, len(bounds) = overflow
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveTrace records one value and, when traceID is nonzero, stamps
// it as the bucket's latest exemplar.
func (h *Histogram) ObserveTrace(v float64, traceID uint64) {
	h.StampExemplar(v, traceID)
	h.Observe(v)
}

// StampExemplar attaches traceID to the bucket v falls in without
// observing v — the tail sampler uses it to back-fill exemplars for
// already-observed latencies once their traces are force-recorded.
func (h *Histogram) StampExemplar(v float64, traceID uint64) {
	if traceID != 0 {
		h.exemplars[sort.SearchFloat64s(h.bounds, v)].Store(traceID)
	}
}

// bucketIndex returns the index of the bucket holding the q-quantile
// rank, mirroring quantile's walk. -1 for an empty histogram.
func (h *Histogram) bucketIndex(q float64) int {
	counts, _, total := h.snapshot()
	if total == 0 {
		return -1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) >= rank && c > 0 {
			return i
		}
	}
	return len(counts) - 1
}

// quantileExemplar returns the trace ID exemplar for the bucket
// holding the q-quantile rank, falling back outward (higher buckets
// first — the interesting tail — then lower) when that bucket has no
// exemplar yet. 0 when the histogram holds no exemplars at all.
func (h *Histogram) quantileExemplar(q float64) uint64 {
	i := h.bucketIndex(q)
	if i < 0 {
		return 0
	}
	if id := h.exemplars[i].Load(); id != 0 {
		return id
	}
	for j := i + 1; j < len(h.exemplars); j++ {
		if id := h.exemplars[j].Load(); id != 0 {
			return id
		}
	}
	for j := i - 1; j >= 0; j-- {
		if id := h.exemplars[j].Load(); id != 0 {
			return id
		}
	}
	return 0
}

// snapshot reads a consistent-enough view of the histogram: per-bucket
// counts, sum, and total count. Concurrent Observes may skew the
// moments by the in-flight samples, which exposition tolerates.
func (h *Histogram) snapshot() (counts []int64, sum float64, count int64) {
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, math.Float64frombits(h.sum.Load()), h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear
// interpolation within the bucket holding the target rank — the same
// estimate Prometheus' histogram_quantile computes. An empty histogram
// returns 0. Ranks landing in the overflow bucket are clamped to the
// highest finite bound (there is no upper edge to interpolate toward).
func (h *Histogram) quantile(q float64) float64 {
	counts, _, total := h.snapshot()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i == len(h.bounds) { // overflow bucket
			if len(h.bounds) == 0 {
				return h.Sum() / float64(total) // no bounds at all: mean
			}
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (h.bounds[i]-lo)*frac
	}
	if len(h.bounds) == 0 {
		return 0
	}
	return h.bounds[len(h.bounds)-1]
}

// HistStats is the typed digest of a histogram — count, sum and the
// standard latency percentiles. It marshals to stable JSON, so reports
// that embed it (the loadgen report, SLO evaluation) round-trip through
// encode/decode unchanged.
type HistStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
	// P99Exemplar is the hex trace ID behind the p99 bucket, when the
	// histogram was fed via ObserveTrace; omitted otherwise so older
	// reports round-trip unchanged.
	P99Exemplar string `json:"p99_exemplar,omitempty"`
}

// Percentile returns the named percentile ("p50", "p95", "p99") from the
// digest; ok is false for an unknown name.
func (s HistStats) Percentile(name string) (v float64, ok bool) {
	switch name {
	case "p50":
		return s.P50, true
	case "p95":
		return s.P95, true
	case "p99":
		return s.P99, true
	}
	return 0, false
}

// Stats returns the typed digest used by machine-readable reports.
func (h *Histogram) Stats() HistStats {
	_, sum, count := h.snapshot()
	st := HistStats{
		Count: count,
		Sum:   sum,
		P50:   h.quantile(0.50),
		P95:   h.quantile(0.95),
		P99:   h.quantile(0.99),
	}
	if ex := h.quantileExemplar(0.99); ex != 0 {
		st.P99Exemplar = fmt.Sprintf("%016x", ex)
	}
	return st
}

// Summary returns the JSON-friendly digest used by /debug/vars and the
// serving /stats endpoint: count, sum, p50/p95/p99, and the cumulative
// bucket counts keyed by upper bound.
func (h *Histogram) Summary() map[string]interface{} {
	counts, _, _ := h.snapshot()
	st := h.Stats()
	buckets := map[string]int64{}
	var cum int64
	for i, c := range counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		buckets[le] = cum
	}
	out := map[string]interface{}{
		"count":   st.Count,
		"sum":     st.Sum,
		"p50":     st.P50,
		"p95":     st.P95,
		"p99":     st.P99,
		"buckets": buckets,
	}
	exemplars := map[string]string{}
	for i := range h.exemplars {
		id := h.exemplars[i].Load()
		if id == 0 {
			continue
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		exemplars[le] = fmt.Sprintf("%016x", id)
	}
	if len(exemplars) > 0 {
		out["exemplars"] = exemplars
	}
	return out
}
