package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"pac/internal/checkpoint"
	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/peft"
	"pac/internal/tensor"
)

// serving starts run() on an ephemeral port and returns the API base
// URL, the log so far, and a stop function that closes the listener and
// hands back what run returned. Requests against one server are issued
// one at a time.
func serving(t *testing.T, args ...string) (base string, log *strings.Builder, stop func() error) {
	t.Helper()
	log = &strings.Builder{}
	bound := make(chan net.Listener, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), log, func(ln net.Listener) { bound <- ln })
	}()
	select {
	case ln := <-bound:
		return "http://" + ln.Addr().String(), log, func() error {
			ln.Close()
			return <-done
		}
	case err := <-done:
		t.Fatalf("run returned before serving: %v\n%s", err, log)
		return "", nil, nil
	}
}

func getJSON(t *testing.T, resp *http.Response, err error) map[string]interface{} {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s: %s", resp.Request.URL, resp.Status, body)
	}
	var v map[string]interface{}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("%s: %v in %s", resp.Request.URL, err, body)
	}
	return v
}

// adaptersFor saves a checkpoint pac-serve's default model accepts.
func adaptersFor(t *testing.T) string {
	t.Helper()
	cfg := model.Tiny()
	cfg.MaxSeq = 32
	path := filepath.Join(t.TempDir(), "adapters.pack")
	if err := checkpoint.Save(path, "a", peft.NewParallel(model.New(cfg), peft.Options{Reduction: 2, Seed: 9}), cfg, 0); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunServes(t *testing.T) {
	backend := tensor.ActiveBackend().Name()
	adapters := adaptersFor(t)
	base, log, stop := serving(t, "-telemetry-addr", "127.0.0.1:0", "-mem-budget", "64MiB", "-backend", "int8", "-adapters", adapters)

	resp, err := http.Post(base+"/classify", "application/json", strings.NewReader(`{"tokens":[[17,33,21,54]],"user":7}`))
	if classes, ok := getJSON(t, resp, err)["classes"].([]interface{}); !ok || len(classes) != 1 {
		t.Errorf("/classify answered without one class per row: %v", classes)
	}
	resp, err = http.Post(base+"/swap", "application/json", strings.NewReader(fmt.Sprintf(`{"path":%q}`, adapters)))
	getJSON(t, resp, err)
	resp, err = http.Get(base + "/stats")
	if stats := getJSON(t, resp, err); stats["backend"] != "int8" || stats["swaps"] != float64(1) {
		t.Errorf("/stats names backend %v and %v swaps, want int8 and 1", stats["backend"], stats["swaps"])
	}
	if budget, _, _ := memledger.Default().Budget(); budget != 64<<20 {
		t.Errorf("budget armed at %d bytes while serving, want 64 MiB", budget)
	}

	if err := stop(); err == nil {
		t.Error("run returned nil after its listener was closed")
	}
	for _, want := range []string{
		"memory budget: 67.1 MB",
		"loaded adapters from " + adapters,
		"telemetry: http://127.0.0.1:",
		"backend=int8) on " + strings.TrimPrefix(base, "http://"),
	} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("log missing %q:\n%s", want, log)
		}
	}
	// The deferred Close ran: the process is as it was found.
	if budget, _, _ := memledger.Default().Budget(); budget != 0 {
		t.Errorf("run left a %d-byte budget armed", budget)
	}
	if got := tensor.ActiveBackend().Name(); got != backend {
		t.Errorf("run left backend %q active, want %q", got, backend)
	}
}

// TestShutdownDrainsInFlight: on SIGTERM pac-serve stops accepting, and
// a request already in its handler still answers 200 before run returns.
func TestShutdownDrainsInFlight(t *testing.T) {
	base, log, stop := serving(t)
	addr := strings.TrimPrefix(base, "http://")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body := `{"tokens":[[17,33,21,54]]}`
	fmt.Fprintf(conn, "POST /classify HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\n"+
		"Content-Length: %d\r\nExpect: 100-continue\r\n\r\n", addr, len(body))
	// The server sends 100 Continue when the handler first reads the
	// body: from here the request is in flight.
	br := bufio.NewReader(conn)
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "HTTP/1.1 100") {
		t.Fatalf("no 100 Continue: %q, %v", line, err)
	}
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	self, _ := os.FindProcess(os.Getpid())
	if err := self.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Shutdown has begun once the listener refuses new connections.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		if time.Now().After(deadline) {
			t.Fatal("still accepting connections 5 s after SIGTERM")
		}
	}

	io.WriteString(conn, body)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("in-flight request dropped at shutdown: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("in-flight request answered %s, want 200", resp.Status)
	}
	if err := stop(); err != nil {
		t.Errorf("run after SIGTERM: %v", err)
	}
	if !strings.Contains(log.String(), "shutting down: draining in-flight requests") {
		t.Errorf("log missing the drain line:\n%s", log)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown backend":     {"-backend", "nope"},
		"malformed budget":    {"-mem-budget", "garbage"},
		"unreadable adapters": {"-adapters", filepath.Join(t.TempDir(), "missing.pack")},
	} {
		err := run(append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, func(ln net.Listener) {
			t.Errorf("%s: run went on to serve", name)
			ln.Close()
		})
		if err == nil {
			t.Errorf("%s: run returned nil", name)
		}
	}
}

// TestFlagSurface pins the command's options: adding, renaming or
// removing a flag is a reviewed change to this list.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"adapters", "addr", "backend", "lm", "mem-budget",
		"telemetry-addr", "trace-sample", "vocab", "workers",
	}
	fs, _ := newFlags()
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flag surface changed:\n got %v\nwant %v", got, want)
	}
	for _, retired := range []string{"-trace-cap", "-mem-warn-frac", "-mem-crit-frac", "-replicas", "-min-replicas", "-fleet-journal", "-flight-size"} {
		err := run([]string{retired, "1"}, io.Discard, nil)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+retired) {
			t.Errorf("%s: got %v, want a flag-parse error", retired, err)
		}
	}
}
