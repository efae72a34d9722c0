// Package loadgen is the trace-driven load harness for the serving
// stack: it synthesizes deterministic multi-user request traces —
// Zipf-distributed user popularity, open-loop Poisson arrivals with
// burst phases, and a configurable classify/generate mix — replays them
// against a serve.Server (in-process or over HTTP), and gates the
// measured throughput and latency percentiles against an SLO budget.
//
// Every trace is a pure function of its SynthConfig (seed included):
// the same config produces a bit-identical request sequence, and a
// trace saved to disk replays exactly, so two reports of one trace
// differ only by what the server did. This is the yardstick the
// scale-out serving arc (adapter routing, pipelined generation) is
// judged by.
package loadgen

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"
)

// Op is a request kind.
type Op string

// The request kinds a trace can carry.
const (
	OpClassify Op = "classify"
	OpGenerate Op = "generate"
)

// Request is one replayable request: who sends it, what it asks for,
// and when it arrives (offset from trace start). Arrival offsets are
// integer microseconds so traces round-trip through JSON bit-exactly.
type Request struct {
	ID        int   `json:"id"`
	User      int   `json:"user"`
	Op        Op    `json:"op"`
	ArrivalUS int64 `json:"arrival_us"`
	Tokens    []int `json:"tokens"`
	Len       int   `json:"len"`
	MaxLen    int   `json:"max_len,omitempty"`
}

// SynthConfig parameterizes trace synthesis. Duration fields marshal as
// integer nanoseconds, keeping saved traces byte-stable.
type SynthConfig struct {
	Seed  int64 `json:"seed"`
	Users int   `json:"users"`
	// Zipf is the popularity skew s ≥ 0: user u is drawn with weight
	// 1/(u+1)^s. 0 means uniform popularity.
	Zipf float64 `json:"zipf"`
	// QPS is the baseline mean arrival rate of the open-loop Poisson
	// process.
	QPS float64 `json:"qps"`
	// Burst multiplies the arrival rate during burst phases (1 = no
	// bursts). Every BurstEvery, the rate runs at QPS×Burst for BurstLen.
	Burst      float64       `json:"burst"`
	BurstEvery time.Duration `json:"burst_every"`
	BurstLen   time.Duration `json:"burst_len"`
	// GenFrac is the fraction of generate requests (the rest classify).
	GenFrac  float64       `json:"gen_frac"`
	Duration time.Duration `json:"duration"`
	// SeqLen bounds request sequence lengths (drawn in [4, SeqLen]);
	// Vocab bounds payload tokens ([2, Vocab), matching the data
	// generator's convention); MaxLen caps generate decoding.
	SeqLen int `json:"seq_len"`
	Vocab  int `json:"vocab"`
	MaxLen int `json:"max_len"`
}

// withDefaults fills unset fields with workable values.
func (c SynthConfig) withDefaults() SynthConfig {
	if c.Users < 1 {
		c.Users = 1
	}
	if c.QPS <= 0 {
		c.QPS = 100
	}
	if c.Burst < 1 {
		c.Burst = 1
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.SeqLen < 4 {
		c.SeqLen = 16
	}
	if c.Vocab < 4 {
		c.Vocab = 64
	}
	if c.MaxLen < 1 {
		c.MaxLen = 8
	}
	if c.GenFrac < 0 {
		c.GenFrac = 0
	}
	if c.GenFrac > 1 {
		c.GenFrac = 1
	}
	return c
}

// Trace is a synthesized (or loaded) request stream plus the config
// that produced it.
type Trace struct {
	Config   SynthConfig `json:"config"`
	Requests []Request   `json:"requests"`
}

// zipfCDF precomputes the cumulative popularity distribution over users:
// weight(u) = 1/(u+1)^s. s=0 degenerates to uniform.
func zipfCDF(users int, s float64) []float64 {
	cdf := make([]float64, users)
	total := 0.0
	for u := 0; u < users; u++ {
		total += 1 / math.Pow(float64(u+1), s)
		cdf[u] = total
	}
	for u := range cdf {
		cdf[u] /= total
	}
	return cdf
}

// inBurst reports whether offset t falls inside a burst phase.
func (c SynthConfig) inBurst(t time.Duration) bool {
	if c.Burst <= 1 || c.BurstEvery <= 0 || c.BurstLen <= 0 {
		return false
	}
	return t%c.BurstEvery < c.BurstLen
}

// Synthesize produces a deterministic trace: identical configs (seed
// included) yield bit-identical traces. Arrivals are open-loop — the
// schedule is fixed here, before any server is involved, so replay
// timing cannot depend on server latency.
func Synthesize(cfg SynthConfig) *Trace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	cdf := zipfCDF(cfg.Users, cfg.Zipf)

	tr := &Trace{Config: cfg}
	t := time.Duration(0)
	for id := 0; ; id++ {
		// Poisson arrivals: exponential gaps at the phase's current rate.
		rate := cfg.QPS
		if cfg.inBurst(t) {
			rate *= cfg.Burst
		}
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= cfg.Duration {
			break
		}
		user := sort.SearchFloat64s(cdf, rng.Float64())
		if user >= cfg.Users {
			user = cfg.Users - 1
		}
		op := OpClassify
		if rng.Float64() < cfg.GenFrac {
			op = OpGenerate
		}
		seqLen := 4 + rng.Intn(cfg.SeqLen-3)
		tokens := make([]int, seqLen)
		for i := range tokens {
			tokens[i] = 2 + rng.Intn(cfg.Vocab-2)
		}
		req := Request{
			ID:        id,
			User:      user,
			Op:        op,
			ArrivalUS: t.Microseconds(),
			Tokens:    tokens,
			Len:       seqLen,
		}
		if op == OpGenerate {
			req.MaxLen = 1 + rng.Intn(cfg.MaxLen)
		}
		tr.Requests = append(tr.Requests, req)
	}
	return tr
}

// HasOp reports whether the trace carries any request of the given kind.
func (tr *Trace) HasOp(op Op) bool {
	for i := range tr.Requests {
		if tr.Requests[i].Op == op {
			return true
		}
	}
	return false
}

// DistinctUsers counts the users that actually appear in the trace.
func (tr *Trace) DistinctUsers() int {
	seen := map[int]bool{}
	for i := range tr.Requests {
		seen[tr.Requests[i].User] = true
	}
	return len(seen)
}

// Span returns the arrival offset of the last request.
func (tr *Trace) Span() time.Duration {
	if len(tr.Requests) == 0 {
		return 0
	}
	return time.Duration(tr.Requests[len(tr.Requests)-1].ArrivalUS) * time.Microsecond
}

// Encode renders the trace as indented JSON. Encoding is deterministic:
// saving a loaded trace reproduces the original bytes.
func (tr *Trace) Encode() []byte {
	out, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}

// Save writes the trace to path.
func (tr *Trace) Save(path string) error {
	if err := os.WriteFile(path, tr.Encode(), 0o644); err != nil {
		return fmt.Errorf("loadgen: save trace: %w", err)
	}
	return nil
}

// Decode parses a trace and validates its replayability invariants.
func Decode(blob []byte) (*Trace, error) {
	var tr Trace
	if err := json.Unmarshal(blob, &tr); err != nil {
		return nil, fmt.Errorf("loadgen: decode trace: %w", err)
	}
	last := int64(-1)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if r.ArrivalUS < last {
			return nil, fmt.Errorf("loadgen: trace arrivals not monotonic at request %d", r.ID)
		}
		last = r.ArrivalUS
		if len(r.Tokens) == 0 {
			return nil, fmt.Errorf("loadgen: request %d has no tokens", r.ID)
		}
		if r.Op != OpClassify && r.Op != OpGenerate {
			return nil, fmt.Errorf("loadgen: request %d has unknown op %q", r.ID, r.Op)
		}
	}
	return &tr, nil
}

// Load reads a trace from path.
func Load(path string) (*Trace, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: load trace: %w", err)
	}
	return Decode(blob)
}
