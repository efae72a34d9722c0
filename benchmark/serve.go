package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pac/internal/checkpoint"
	"pac/internal/generate"
	"pac/internal/model"
	"pac/internal/nn"
	"pac/internal/peft"
	"pac/internal/serve"
	"pac/internal/telemetry"
	"pac/internal/tensor"
)

const (
	genMaxLen = 8  // tokens asked for in the decode phase
	swapEvery = 50 // client 0 swaps adapters after this many of its own phase-b requests
)

// serveWL drives one serve.Server through its HTTP handler in process
// (httptest recorders, no sockets), closed loop. classify: int8
// backend, two clients, phase a without and phase b with adapter swaps.
// generate: fp32 LM head, one client, phase a asks for one token (the
// first-token path), phase b for genMaxLen.
type serveWL struct {
	b       *bench
	gen     bool
	clients int
	splitAt float64 // share of the window given to phase a
	path    string
	cfg     model.Config

	m     *model.Model
	tech  *peft.Parallel
	srv   *serve.Server
	h     http.Handler
	pool  []request
	exp   [2][]int  // classify: expected class per pool entry under adapter set A, B
	ckpt  [2]string // adapter checkpoints A, B
	newS  float64
	quanS float64
	saveS []float64

	recs   [][]opRec // per client
	rounds []roundRec
	state  []clientState
	swapMs []float64
	got    map[[2]int][]int // generate: first output seen per (pool index, phase)
	mu     sync.Mutex
	wallS  float64
}

// opRec is one request as its client saw it.
type opRec struct {
	round    int
	work     int     // 1 request, or the tokens generated
	latMs    float64 // ServeHTTP only
	clientMs float64 // the benchmark's own building and checking around it
}

// roundRec is one round: every client sends its share of requests,
// closed loop, then all join and the yardstick is read. elapsed is each
// client's own time in the round.
type roundRec struct {
	phase    int
	traced   bool
	from, to time.Time
	elapsed  []time.Duration
}

// clientState is what a client carries from round to round.
type clientState struct {
	sent      [2]int // requests so far in each phase; picks the next pool entry
	active    int    // adapter set in force, as client 0 (the only swapper) knows it
	sinceSwap int
}

func newServe(b *bench, gen bool) (*serveWL, error) {
	w := &serveWL{b: b, gen: gen}
	backend := "int8"
	if gen {
		// fp32 kernels already use both workers, so one client fills the box.
		w.clients, w.splitAt, w.path, w.cfg = 1, 0.25, "/generate", benchLM()
		backend = "generic"
	} else {
		// int8 batch-1 requests run single-threaded: two clients fill two cores.
		w.clients, w.splitAt, w.path, w.cfg = 2, 0.4, "/classify", benchModel()
	}
	return w, tensor.SetBackend(backend)
}

func (w *serveWL) setup() error {
	b := w.b
	t0 := time.Now()
	w.m = model.New(w.cfg)
	w.newS = time.Since(t0).Seconds()
	w.tech = peft.NewParallel(w.m, peft.Options{Reduction: reduction})
	w.srv = serve.NewServer(w.tech, w.cfg)
	w.h = serve.HandlerFor(w.srv)
	if w.gen {
		w.pool = genRequests(b.opt.seed, b.sc.genPool, 8, 24, w.cfg.Vocab, genMaxLen)
		for i := 0; i < b.sc.genWarm; i++ {
			if rr, _ := w.post(w.path, w.pool[i%len(w.pool)].Body, ""); rr.Code != http.StatusOK {
				return fmt.Errorf("warm-up generate: status %d: %s", rr.Code, rr.Body)
			}
		}
	} else if err := w.setupClassify(); err != nil {
		return err
	}
	if b.traced() {
		w.srv.SetTracer(b.tracer, telemetry.PidServe, "bench-replica")
	}
	return nil
}

// setupClassify quantizes the backbone, writes the two adapter
// checkpoints the swaps alternate between, and computes every pool
// entry's class under each of them by calling the server directly.
func (w *serveWL) setupClassify() error {
	b := w.b
	t0 := time.Now()
	if w.tech.QuantizeBackbone() == 0 {
		return fmt.Errorf("int8 backend quantized no projection")
	}
	w.quanS = time.Since(t0).Seconds()

	dir, err := os.MkdirTemp(buildDir, "ckpt-")
	if err != nil {
		return err
	}
	b.cleanup = append(b.cleanup, func() { _ = os.RemoveAll(dir) }) // best effort: the directory is git-ignored scratch
	setA := nn.FlattenParams(w.tech.Trainable())
	setB := append([]float32(nil), setA...)
	rng := rand.New(rand.NewSource(b.opt.seed))
	for i := range setB {
		setB[i] += float32(rng.NormFloat64() * 0.2)
	}
	w.saveS = w.saveS[:0]
	for i, set := range [][]float32{setB, setA} { // A last: the server starts on A
		nn.UnflattenParams(w.tech.Trainable(), set)
		name := []string{"B", "A"}[i]
		path := filepath.Join(dir, "adapters-"+name+".pack")
		t0 := time.Now()
		if err := checkpoint.Save(path, name, w.tech, w.cfg, 0); err != nil {
			return err
		}
		w.saveS = append(w.saveS, time.Since(t0).Seconds())
		w.ckpt[1-i] = path
	}

	w.pool = genRequests(b.opt.seed, b.sc.clsPool, 8, 32, w.cfg.Vocab, 0)
	for set := 0; set < 2; set++ {
		if err := w.srv.SwapCheckpoint(w.ckpt[set]); err != nil {
			return err
		}
		w.exp[set] = make([]int, len(w.pool))
		for i, r := range w.pool {
			cls, err := w.srv.ClassifyFor(context.Background(), r.User, [][]int{r.Tokens}, []int{len(r.Tokens)})
			if err != nil {
				return err
			}
			w.exp[set][i] = cls[0]
		}
	}
	if err := w.srv.SwapCheckpoint(w.ckpt[0]); err != nil {
		return err
	}
	for i := 0; i < b.sc.clsWarm; i++ {
		if rr, _ := w.post(w.path, w.pool[i%len(w.pool)].Body, ""); rr.Code != http.StatusOK {
			return fmt.Errorf("warm-up classify: status %d: %s", rr.Code, rr.Body)
		}
	}
	return nil
}

// post sends one request through the handler and times ServeHTTP alone.
func (w *serveWL) post(path string, body []byte, traceHeader string) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if traceHeader != "" {
		req.Header.Set(telemetry.TraceHeader, traceHeader)
	}
	rr := httptest.NewRecorder()
	t0 := time.Now()
	w.h.ServeHTTP(rr, req)
	return rr, time.Since(t0)
}

// roundSize is how many requests each client sends per round: about a
// quarter of a second of work between yardstick readings.
func (w *serveWL) roundSize(phase int) int {
	switch {
	case !w.gen:
		return 24
	case phase == 0:
		return 8
	}
	return 1
}

func (w *serveWL) window() error {
	cal := w.b.cal
	w.recs = make([][]opRec, w.clients)
	w.state = make([]clientState, w.clients)
	w.rounds = nil
	w.got = map[[2]int][]int{}
	cal.point()
	start := time.Now()
	length := time.Duration(w.b.opt.seconds * float64(time.Second))
	split, deadline := start.Add(time.Duration(w.splitAt*float64(length))), start.Add(length)
	for round := 0; ; round++ {
		from := time.Now()
		if !from.Before(deadline) {
			break
		}
		rr := roundRec{traced: w.b.traced() && round%2 == 0, from: from, elapsed: make([]time.Duration, w.clients)}
		if !from.Before(split) {
			rr.phase = 1
		}
		var wg sync.WaitGroup
		for c := 0; c < w.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				w.clientRound(c, round, rr)
				rr.elapsed[c] = time.Since(from)
			}(c)
		}
		wg.Wait()
		rr.to = time.Now()
		cal.point()
		w.rounds = append(w.rounds, rr)
	}
	w.wallS = time.Since(start).Seconds()
	return nil
}

// clientRound is one closed-loop caller's share of a round: it sends its
// next request only after the reply to the previous one was checked.
func (w *serveWL) clientRound(c, round int, rr roundRec) {
	b := w.b
	st := &w.state[c]
	for i := w.roundSize(rr.phase); i > 0; i-- {
		t0 := time.Now()
		// Each phase walks the pool from its start, so the outputs that
		// are compared with direct decoding are the phase's first ones.
		idx := (c + st.sent[rr.phase]*w.clients) % len(w.pool)
		op := int64((st.sent[0]+st.sent[1])*w.clients + c)
		st.sent[rr.phase]++
		r := w.pool[idx]
		body := r.Body
		if w.gen && rr.phase == 0 {
			body = r.Body1
		}
		header := ""
		var reqSpan, hSpan int
		if rr.traced {
			reqSpan = b.rec.begin("request", 0, op, c)
			hSpan = b.rec.begin("serve.handler", reqSpan, op, c)
		}
		if b.traced() {
			// In a closed round the header still travels, unsampled, so
			// that the server's tracer records nothing for the request.
			header = telemetry.TraceContext{TraceID: uint64(op + 1), SpanID: uint64(hSpan + 1), Sampled: rr.traced}.HeaderValue()
		}
		reply, lat := w.post(w.path, body, header)
		b.rec.end(hSpan)
		work := w.verify(c, idx, rr.phase, st.active, reply)
		b.rec.end(reqSpan)
		w.recs[c] = append(w.recs[c], opRec{round: round, work: work,
			latMs: lat.Seconds() * 1e3, clientMs: (time.Since(t0) - lat).Seconds() * 1e3})

		if !w.gen && c == 0 && rr.phase == 1 {
			if st.sinceSwap++; st.sinceSwap == swapEvery {
				st.sinceSwap = 0
				st.active = 1 - st.active
				w.swap(st.active)
			}
		}
	}
}

// swap posts /swap for adapter set to; only client 0 calls it.
func (w *serveWL) swap(to int) {
	body, _ := json.Marshal(map[string]string{"path": w.ckpt[to]}) // a map of strings always marshals
	sp := w.b.rec.begin("serve.swap", 0, -1, 0)
	rr, lat := w.post("/swap", body, "")
	w.b.rec.end(sp)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.swapMs = append(w.swapMs, lat.Seconds()*1e3)
	if rr.Code != http.StatusOK {
		w.b.fail("swap to set %d: status %d: %s", to, rr.Code, rr.Body)
	}
}

// verify checks one reply and returns the work it carried (1 request,
// or the number of generated tokens). Failures are tallied under w.mu.
func (w *serveWL) verify(c, idx, phase, active int, rr *httptest.ResponseRecorder) int {
	fail := func(format string, args ...interface{}) {
		w.mu.Lock()
		w.b.fail(format, args...)
		w.mu.Unlock()
	}
	if rr.Code != http.StatusOK {
		fail("%s request %d: status %d: %s", w.path, idx, rr.Code, rr.Body)
		return 0
	}
	var reply struct {
		Classes []int   `json:"classes"`
		Outputs [][]int `json:"outputs"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &reply); err != nil {
		fail("%s request %d: bad reply: %v", w.path, idx, err)
		return 0
	}
	if !w.gen {
		if len(reply.Classes) != 1 {
			fail("classify request %d: %d classes for a batch of 1", idx, len(reply.Classes))
			return 0
		}
		got, a, bb := reply.Classes[0], w.exp[0][idx], w.exp[1][idx]
		// Client 0 knows which set is loaded. Client 1 may race a swap
		// in phase b, where either set is a correct answer.
		ok := got == w.exp[active][idx]
		if c != 0 && phase == 1 {
			ok = got == a || got == bb
		}
		if !ok {
			fail("classify request %d: class %d, want %d (set A) or %d (set B), set %d loaded", idx, got, a, bb, active)
		}
		return 1
	}
	want := genMaxLen
	if phase == 0 {
		want = 1
	}
	if len(reply.Outputs) != 1 || len(reply.Outputs[0]) > want {
		fail("generate request %d: outputs %v for max_len %d", idx, reply.Outputs, want)
		return 0
	}
	for _, tok := range reply.Outputs[0] {
		if tok < 0 || tok >= w.cfg.Vocab {
			fail("generate request %d: token %d outside the vocabulary", idx, tok)
			return 0
		}
	}
	if idx < w.b.sc.verify {
		w.mu.Lock()
		if _, seen := w.got[[2]int{idx, phase}]; !seen {
			w.got[[2]int{idx, phase}] = reply.Outputs[0]
		}
		w.mu.Unlock()
	}
	// A generation that stops at EOS did the decode step that produced
	// EOS too; count the tokens delivered, which is what a user sees.
	return len(reply.Outputs[0])
}

func (w *serveWL) finish() {
	b := w.b
	// Every duration below is at nominal machine speed (see calib.go).
	// One speed per phase: the yardstick readings of all its rounds.
	var span [2][2]time.Time
	for _, rr := range w.rounds {
		if span[rr.phase][0].IsZero() {
			span[rr.phase][0] = rr.from
		}
		span[rr.phase][1] = rr.to
	}
	speed := [2]float64{b.cal.speed(span[0][0], span[0][1]), b.cal.speed(span[1][0], span[1][1])}
	var nominalWall, rawWall float64
	for _, rr := range w.rounds {
		rawWall += rr.to.Sub(rr.from).Seconds()
		nominalWall += rr.to.Sub(rr.from).Seconds() * speed[rr.phase]
	}
	var all, lat, latRaw, latOn, latOff, clientMs []float64
	var work [2]int
	rates := [2][][]float64{make([][]float64, w.clients), make([][]float64, w.clients)}
	requests := 0
	for c, recs := range w.recs {
		requests += len(recs)
		roundWork := make([]int, len(w.rounds))
		for _, r := range recs {
			rr := w.rounds[r.round]
			work[rr.phase] += r.work
			roundWork[r.round] += r.work
			ms := r.latMs * speed[rr.phase]
			all = append(all, ms)
			clientMs = append(clientMs, r.clientMs*speed[rr.phase])
			if w.gen && rr.phase == 0 {
				continue // first-token requests are a different operation
			}
			lat = append(lat, ms)
			latRaw = append(latRaw, r.latMs)
			if rr.traced {
				latOn = append(latOn, ms)
			} else {
				latOff = append(latOff, ms)
			}
		}
		for i, rr := range w.rounds {
			rate := float64(roundWork[i]) / (rr.elapsed[c].Seconds() * speed[rr.phase])
			rates[rr.phase][c] = append(rates[rr.phase][c], rate)
		}
	}
	b.attempted += int64(requests + len(w.swapMs))
	b.ops["requests"] = int64(requests)
	b.ops["rounds"] = int64(len(w.rounds))
	b.ops["latency_samples"] = int64(len(lat))
	b.ops["swaps"] = int64(len(w.swapMs))
	b.ops["work_phase_a"] = int64(work[0])
	b.ops["work_phase_b"] = int64(work[1])

	if w.gen {
		w.verifyGenerate()
	} else {
		b.check(w.srv.Swaps() >= int64(len(w.swapMs)), "server counted %d swaps, client made %d", w.srv.Swaps(), len(w.swapMs))
		differ := 0
		for i := range w.pool {
			if w.exp[0][i] != w.exp[1][i] {
				differ++
			}
		}
		fmt.Printf("adapter sets A and B disagree on %d of %d pool entries\n", differ, len(w.pool))
	}

	// A phase's rate is the sum over clients of each client's median
	// round rate: a median over rounds keeps a burst from moving it.
	var rate [2]float64
	for phase := 0; phase < 2; phase++ {
		for c := 0; c < w.clients; c++ {
			rate[phase] += median(rates[phase][c])
		}
		b.check(rate[phase] > 0, "phase %d completed no round", phase)
	}
	b.e2e["work_per_s"] = float64(work[0]+work[1]) / nominalWall
	b.e2e["phase_a_per_s"] = rate[0]
	b.e2e["phase_b_per_s"] = rate[1]
	b.e2e["op_p50_ms"] = percentile(lat, 50)
	b.e2e["op_p90_ms"] = percentile(lat, 90)
	fmt.Printf("requests: %d in %d rounds over %.3f s (%d latency samples), work a %d, b %d, swaps %d\n",
		requests, len(w.rounds), w.wallS, len(lat), work[0], work[1], len(w.swapMs))
	fmt.Printf("as measured: %.2f work/s over the rounds, latency p50 %.3f ms, p90 %.3f ms\n",
		float64(work[0]+work[1])/rawWall, percentile(latRaw, 50), percentile(latRaw, 90))
	if !b.traced() {
		return
	}

	L := b.layer
	L["model.new_s"] = w.newS
	L["model.quantize_s"] = w.quanS
	L["checkpoint.save_ms"] = median(w.saveS) * 1e3
	L["serve.swaps"] = float64(len(w.swapMs))
	L["serve.swap_p50_ms"] = median(w.swapMs)
	L["serve.latency_p99_ms"] = percentile(all, 99)
	L["serve.client_encode_ms"] = median(clientMs)
	var wait, fwd []float64
	for _, ev := range b.tracer.Events() {
		switch ev.Name {
		case "wait":
			wait = append(wait, ev.Dur/1e3)
		case "forward":
			fwd = append(fwd, ev.Dur/1e3)
		}
	}
	if len(wait) > 0 {
		L["serve.lock_wait_ms"] = sum(wait) / float64(len(wait))
	}
	L["serve.forward_ms"] = median(fwd)
	if len(latOn) > 0 && len(latOff) > 0 {
		L["trace.overhead_share"] = median(latOn)/median(latOff) - 1
	}
	totals := selfTimes(b.rec.snapshot())
	if req := totals["request"]; req.Total > 0 {
		L["trace.coverage_share"] = 1 - req.Self.Seconds()/req.Total.Seconds()
	}
}

// verifyGenerate compares the handler's outputs for the first pool
// entries with generate.Decode called directly on the same technique.
func (w *serveWL) verifyGenerate() {
	b := w.b
	compared := 0
	for idx := 0; idx < b.sc.verify && idx < len(w.pool); idx++ {
		r := w.pool[idx]
		for phase, maxLen := range []int{1, genMaxLen} {
			got, seen := w.got[[2]int{idx, phase}]
			if !seen {
				continue
			}
			want := generate.Decode(w.tech, [][]int{r.Tokens}, []int{len(r.Tokens)}, generate.Options{MaxLen: maxLen})[0]
			b.check(fmt.Sprint(got) == fmt.Sprint(want), "generate request %d max_len %d: handler %v, direct Decode %v", idx, maxLen, got, want)
			compared++
			if phase == 1 {
				b.layer["generate.tokens"] += float64(len(want))
			}
		}
	}
	b.check(compared > 0, "no generate output was compared with direct Decode")
}
