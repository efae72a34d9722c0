package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestDebugMuxEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pac_dbg_total").Add(42)
	tr := NewTracer()
	span(tr, "cat", "s", 0, 0)()

	ln, err := Serve("127.0.0.1:0", NewDebugMux(reg, tr))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "pac_dbg_total 42") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	code, body := get("/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars: %d", code)
	}
	var vars map[string]interface{}
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if vars["pac_dbg_total"] != float64(42) {
		t.Fatalf("/debug/vars counter = %v", vars["pac_dbg_total"])
	}
	if code, body := get("/debug/trace"); code != 200 || !strings.Contains(body, `"ph"`) {
		t.Fatalf("/debug/trace: %d %q", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}
}
