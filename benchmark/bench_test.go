package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"pac/internal/acache"
	"pac/internal/tensor"
)

func TestInputsFollowTheSeed(t *testing.T) {
	bodies := func(seed int64) []byte {
		var buf bytes.Buffer
		for _, r := range genRequests(seed, 32, 8, 24, 256, genMaxLen) {
			buf.Write(r.Body)
			buf.Write(r.Body1)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(bodies(7), bodies(7)) {
		t.Fatal("equal seeds gave different request bodies")
	}
	if bytes.Equal(bodies(7), bodies(8)) {
		t.Fatal("different seeds gave identical request bodies")
	}
	for _, r := range genRequests(7, 64, 8, 32, 256, 0) {
		if n := len(r.Tokens); n < 8 || n > 32 {
			t.Fatalf("request length %d outside [8,32]", n)
		}
		if r.User < 0 || r.User >= users {
			t.Fatalf("user %d outside [0,%d)", r.User, users)
		}
	}
	a, b, c := genDataset(7, 48), genDataset(7, 48), genDataset(8, 48)
	if !reflect.DeepEqual(a.Examples, b.Examples) {
		t.Fatal("equal seeds gave different data sets")
	}
	if reflect.DeepEqual(a.Examples, c.Examples) {
		t.Fatal("different seeds gave identical data sets")
	}
}

func TestPercentilesAndQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 5.5}, {90, 9.1}, {100, 10}} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// and statistics.quantiles([3,1,4,1,5,9,2,6], n=4) == [1.25, 3.5, 5.75].
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6})
	if q1 != 1.25 || q2 != 3.5 || q3 != 5.75 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "root", ID: 1, Start: ms(0), End: ms(100)},
		{Name: "step", ID: 2, Parent: 1, Start: ms(10), End: ms(50)},
		{Name: "step", ID: 3, Parent: 1, Start: ms(40), End: ms(70)}, // overlaps the first by 10 ms
		{Name: "rank", ID: 4, Parent: 2, Start: ms(10), End: ms(30)},
		{Name: "rank", ID: 5, Parent: 2, Start: ms(10), End: ms(45)}, // parallel sibling
		{Name: "late", ID: 6, Parent: 1, Start: ms(90), End: ms(120)},
	}
	got := selfTimes(spans)
	want := map[string]nameTotals{
		"root": {Count: 1, Total: ms(100), Self: ms(100 - 60 - 10)}, // children cover [10,70] and [90,100]
		"step": {Count: 2, Total: ms(70), Self: ms(5 + 30)},
		"rank": {Count: 2, Total: ms(55), Self: ms(55)},
		"late": {Count: 1, Total: ms(30), Self: ms(30)},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %+v, want %+v", got, want)
	}
}

func TestRecorderGateAndNil(t *testing.T) {
	var none *recorder
	if id := none.begin("x", 0, -1, 0); id != 0 {
		t.Fatalf("nil recorder opened span %d", id)
	}
	none.end(0)
	r := newRecorder()
	a := r.begin("a", 0, 1, 0)
	r.on.Store(false)
	if id := r.begin("b", a, 1, 0); id != 0 {
		t.Fatalf("closed gate opened span %d", id)
	}
	r.end(a) // ending works with the gate closed
	if got := r.snapshot(); len(got) != 1 || got[0].End < got[0].Start {
		t.Fatalf("spans = %+v", got)
	}
}

func TestTimedStoreForwardsAndCounts(t *testing.T) {
	inner := acache.NewMemoryStore()
	s := &timedStore{Store: inner, rec: newRecorder()}
	entry := func() acache.Entry { return acache.Entry{tensor.New(1, 4, 8), tensor.New(1, 1, 8)} }
	for id := 0; id < 5; id++ {
		if err := s.Put(id, entry()); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 8; id++ {
		_, ok := s.Get(id)
		if ok != (id < 5) {
			t.Fatalf("Get(%d) ok = %v", id, ok)
		}
	}
	st := inner.Stats()
	spans := selfTimes(s.rec.snapshot())
	if int64(spans["acache.get"].Count) != st.Hits+st.Misses || int64(spans["acache.put"].Count) != st.Puts || st.Hits != 5 || st.Misses != 3 {
		t.Fatalf("decorator recorded %d gets and %d puts, store %+v", spans["acache.get"].Count, spans["acache.put"].Count, st)
	}
	if s.Stats() != st || s.Len() != 5 || !s.Has(4) || s.Has(5) || len(s.IDs()) != 5 || s.Bytes() != inner.Bytes() {
		t.Fatal("a forwarded method disagrees with the inner store")
	}
	if s.peak.Load() != inner.Bytes() || s.getNs.Load() <= 0 || s.putNs.Load() <= 0 {
		t.Fatalf("peak %d (store holds %d), get %d ns, put %d ns", s.peak.Load(), inner.Bytes(), s.getNs.Load(), s.putNs.Load())
	}
	if err := s.Clear(); err != nil || inner.Len() != 0 {
		t.Fatalf("Clear: %v, %d entries left", err, inner.Len())
	}
}

// TestSpecMatchesTheCode keeps BENCHMARK.json and the names the program
// prints from drifting apart.
func TestSpecMatchesTheCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &sp); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, code has %v", names, workloadNames)
	}
	same := func(kind string, spec []struct{ Name, Unit string }, code []metricDef) {
		if len(spec) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(spec), len(code))
			return
		}
		for i, m := range spec {
			if m.Name != code[i].name || m.Unit != code[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), code has %s (%s)", kind, i, m.Name, m.Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", sp.EndToEnd, endToEnd)
	same("per_layer", sp.PerLayer, perLayer)
}

// TestSmokeWorkloads runs all four workloads at the -smoke scale, with
// and without tracing where that is cheap, and requires every
// correctness check to pass and every declared metric to be reported.
func TestSmokeWorkloads(t *testing.T) {
	buildDir = t.TempDir()
	for _, tc := range []struct {
		workload string
		trace    bool
	}{
		{"finetune_cached", true},
		{"finetune_evict", false},
		{"serve_classify", true},
		{"serve_generate", false},
	} {
		res, err := runWorkload(options{workload: tc.workload, seed: 3, seconds: 1.5, smoke: true, trace: tc.trace})
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", tc.workload, res.Correct, res.Attempted, res.Failed)
		}
		defs := endToEnd
		if tc.trace {
			defs = perLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s: %d metrics reported, %d declared", tc.workload, len(res.Metrics), len(defs))
		}
		for _, d := range endToEnd {
			if !tc.trace && !(res.Metrics[d.name].Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", tc.workload, d.name, res.Metrics[d.name].Value)
			}
		}
	}
}
