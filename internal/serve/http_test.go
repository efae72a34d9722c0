package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"pac/internal/checkpoint"
	"pac/internal/model"
	"pac/internal/peft"
)

func httpServer(t testing.TB, lm bool) (*httptest.Server, *Server, model.Config) {
	t.Helper()
	cfg := model.Tiny()
	if lm {
		cfg.Vocab, cfg.NumClasses, cfg.LM = 16, 16, true
	}
	m := model.New(cfg)
	s := NewServer(peft.NewParallel(m, peft.Options{Reduction: 4}), cfg)
	ts := httptest.NewServer(HandlerFor(s))
	t.Cleanup(ts.Close)
	return ts, s, cfg
}

func post(t *testing.T, url string, body interface{}) *http.Response {
	t.Helper()
	blob, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestHTTPClassify(t *testing.T) {
	ts, srv, _ := httpServer(t, false)
	resp := post(t, ts.URL+"/classify", map[string]interface{}{
		"tokens": [][]int{{2, 3, 4, 5}, {6, 7, 8, 9}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Classes []int `json:"classes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Classes) != 2 {
		t.Fatalf("classes %v", out.Classes)
	}
	if srv.Served() != 2 {
		t.Fatalf("served %d", srv.Served())
	}
}

func TestHTTPGenerate(t *testing.T) {
	ts, _, _ := httpServer(t, true)
	resp := post(t, ts.URL+"/generate", map[string]interface{}{
		"tokens": [][]int{{2, 3, 4, 5}}, "max_len": 3,
	})
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Outputs [][]int `json:"outputs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Outputs) != 1 || len(out.Outputs[0]) > 3 {
		t.Fatalf("outputs %v", out.Outputs)
	}
}

func TestHTTPGenerateOnClassifierRejected(t *testing.T) {
	ts, _, _ := httpServer(t, false)
	resp := post(t, ts.URL+"/generate", map[string]interface{}{
		"tokens": [][]int{{2, 3}},
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestHTTPValidation(t *testing.T) {
	ts, _, _ := httpServer(t, false)
	cases := []struct {
		body interface{}
		want int
	}{
		{map[string]interface{}{}, http.StatusBadRequest},                                               // no tokens
		{map[string]interface{}{"tokens": [][]int{{1, 2}, {3}}}, http.StatusBadRequest},                 // ragged
		{map[string]interface{}{"tokens": [][]int{{1, 2}}, "lens": []int{1, 2}}, http.StatusBadRequest}, // mismatch
	}
	for i, c := range cases {
		resp := post(t, ts.URL+"/classify", c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("case %d: status %d want %d", i, resp.StatusCode, c.want)
		}
	}
	// GET on a POST route.
	resp, err := http.Get(ts.URL + "/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
}

func TestHTTPSwapAndStats(t *testing.T) {
	ts, srv, cfg := httpServer(t, false)

	// Prepare a checkpoint from a differently-seeded replica.
	m2 := model.New(cfg)
	tech2 := peft.New(peft.ParallelAdapters, m2, peft.Options{Reduction: 4, Seed: 42})
	path := filepath.Join(t.TempDir(), "a.pack")
	if err := checkpoint.Save(path, "t", tech2, cfg, 1); err != nil {
		t.Fatal(err)
	}
	resp := post(t, ts.URL+"/swap", map[string]string{"path": path})
	resp.Body.Close()
	if resp.StatusCode != 200 || srv.Swaps() != 1 {
		t.Fatalf("swap status %d swaps %d", resp.StatusCode, srv.Swaps())
	}
	// Bad path → 422.
	resp = post(t, ts.URL+"/swap", map[string]string{"path": path + ".missing"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad swap status %d", resp.StatusCode)
	}

	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats map[string]interface{}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["swaps"] != float64(1) {
		t.Fatalf("stats %v", stats)
	}
	for _, key := range []string{"classify_seconds", "generate_seconds"} {
		sum, ok := stats[key].(map[string]interface{})
		if !ok {
			t.Fatalf("stats[%q] = %v, want summary object", key, stats[key])
		}
		for _, q := range []string{"count", "p50", "p95", "p99"} {
			if _, ok := sum[q]; !ok {
				t.Fatalf("stats[%q] missing %q: %v", key, q, sum)
			}
		}
	}
	// Nothing batches requests, so /stats must not report batching.
	for _, key := range []string{"batches", "batch_size"} {
		if _, ok := stats[key]; ok {
			t.Fatalf("stats still carries %q: %v", key, stats)
		}
	}
}

func TestHTTPStatsLatencyAndMetrics(t *testing.T) {
	ts, _, _ := httpServer(t, false)
	resp := post(t, ts.URL+"/classify", map[string]interface{}{
		"tokens": [][]int{{2, 3, 4, 5}},
	})
	resp.Body.Close()

	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats map[string]interface{}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	classify := stats["classify_seconds"].(map[string]interface{})
	if classify["count"] != float64(1) {
		t.Fatalf("classify count %v", classify["count"])
	}
	if classify["p95"].(float64) <= 0 {
		t.Fatalf("classify p95 %v", classify["p95"])
	}

	metricsResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer metricsResp.Body.Close()
	blob, _ := io.ReadAll(metricsResp.Body)
	for _, want := range []string{
		"pac_serve_served_total 1",
		`pac_serve_request_seconds_count{op="classify"} 1`,
	} {
		if !strings.Contains(string(blob), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, blob)
		}
	}
	if strings.Contains(string(blob), "pac_serve_batch") {
		t.Fatalf("/metrics still exposes a batch series:\n%s", blob)
	}
}

func TestHTTPUserAttribution(t *testing.T) {
	ts, srv, _ := httpServer(t, false)
	for _, user := range []int{5, 5, 11} {
		resp := post(t, ts.URL+"/classify", map[string]interface{}{
			"tokens": [][]int{{2, 3, 4, 5}}, "user": user,
		})
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	// No user field → anonymous, not attributed.
	resp := post(t, ts.URL+"/classify", map[string]interface{}{
		"tokens": [][]int{{2, 3, 4, 5}},
	})
	resp.Body.Close()
	if srv.Users() != 2 {
		t.Fatalf("users %d want 2", srv.Users())
	}
	if counts := srv.UserCounts(); counts[5] != 2 || counts[11] != 1 {
		t.Fatalf("counts %v", counts)
	}
	statsResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var stats map[string]interface{}
	if err := json.NewDecoder(statsResp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats["users"] != float64(2) {
		t.Fatalf("stats users %v", stats["users"])
	}
	if _, ok := stats["canceled"]; !ok {
		t.Fatal("stats missing canceled")
	}
}

// TestHTTPBodyLimit: a POST body over 1 MiB is answered 413 and reaches
// neither the model nor the in-flight ledger.
func TestHTTPBodyLimit(t *testing.T) {
	_, s, _ := httpServer(t, false)
	h := HandlerFor(s)
	var body strings.Builder
	body.WriteString(`{"tokens":[[`)
	for body.Len() < 2<<20 {
		body.WriteString("1,")
	}
	body.WriteString(`1]],"path":"x"}`)
	for _, path := range []string{"/classify", "/swap"} {
		if code := postDirect(h, path, body.String()); code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a 2 MiB body: status %d, want 413", path, code)
		}
	}
	if s.Served() != 0 || s.Swaps() != 0 || memInflight.Bytes() != 0 {
		t.Fatalf("an oversized body left a mark: served %d, swaps %d, in-flight %d B",
			s.Served(), s.Swaps(), memInflight.Bytes())
	}
	if code := postDirect(h, "/classify", `{"tokens":[[2,3,4,5]]}`); code != http.StatusOK {
		t.Fatalf("a small body after the large one: status %d", code)
	}
}
