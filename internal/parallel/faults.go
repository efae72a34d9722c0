package parallel

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pac/internal/health"
)

// FaultConfig describes a deterministic, seeded fault schedule injected
// by WrapFaulty: transient drops, rank crashes and slow ranks. Each
// ordered rank pair gets its own RNG stream seeded from (Seed, from,
// to), and drops are drawn in per-pair send order — engines communicate
// FIFO per pair, so the same seed replays the exact same drops on every
// run, over any inner fabric.
type FaultConfig struct {
	Seed int64

	// Drop is the per-send probability of a transient drop: SendCtx
	// fails with ErrTransient and nothing is delivered, so a retrying
	// sender eventually gets through. A pair drops at most
	// maxConsecDrops sends in a row, so bounded retries always suffice.
	Drop float64

	// Crash maps rank → the number of transport operations (sends +
	// recvs on that rank's endpoint) after which the rank dies
	// mid-epoch: its own operations fail with ErrRankDead, messages
	// addressed to it vanish, and peers waiting on it time out.
	Crash map[int]int

	// SlowRank maps rank → a fixed extra latency added to every send
	// that rank makes — a persistent straggler (thermally throttled or
	// link-degraded device). The sleep happens under the pair lock so
	// FIFO order, and hence numerics, are preserved.
	SlowRank map[int]time.Duration
}

// maxConsecDrops bounds a pair's streak of injected drops.
const maxConsecDrops = 2

// pairState is the per-ordered-pair fault state. The RNG is consumed
// strictly in send order under mu, which is what makes the schedule
// deterministic.
type pairState struct {
	mu          sync.Mutex
	rng         *rand.Rand
	consecDrops int
}

// faultFabric is the shared state behind one WrapFaulty call.
type faultFabric struct {
	cfg   FaultConfig
	inner []Transport
	pairs [][]*pairState

	mu   sync.Mutex
	ops  []int  // per-rank transport op count (crash trigger)
	dead []bool // per-rank crashed flag
}

// WrapFaulty decorates a fabric's endpoints with seeded fault
// injection. All endpoints must come from one call so they share the
// schedule state. The decorator passes tags and payloads through to the
// inner endpoints untouched.
func WrapFaulty(endpoints []Transport, cfg FaultConfig) []Transport {
	n := len(endpoints)
	f := &faultFabric{
		cfg:   cfg,
		inner: endpoints,
		pairs: make([][]*pairState, n),
		ops:   make([]int, n),
		dead:  make([]bool, n),
	}
	for i := range f.pairs {
		f.pairs[i] = make([]*pairState, n)
		for j := range f.pairs[i] {
			// Distinct, seed-stable stream per ordered pair.
			src := rand.NewSource(cfg.Seed*1_000_003 + int64(i)*4096 + int64(j))
			f.pairs[i][j] = &pairState{rng: rand.New(src)}
		}
	}
	out := make([]Transport, n)
	for r := range out {
		out[r] = &faultyEndpoint{fab: f, rank: r}
	}
	return out
}

// tick counts one transport operation on rank r, triggering its
// scheduled crash when the threshold is reached. Returns ErrRankDead
// (wrapped in a RankFailedError naming r itself) once r is dead.
func (f *faultFabric) tick(r int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.dead[r] {
		f.ops[r]++
		if limit, ok := f.cfg.Crash[r]; ok && f.ops[r] > limit {
			f.dead[r] = true
			mFaultCrashes.Inc()
			health.Flight().Record("fault", -1, r, "crash", float64(f.ops[r]))
		}
	}
	if f.dead[r] {
		return &RankFailedError{Rank: r, Lane: -1, Op: "local op", Err: ErrRankDead}
	}
	return nil
}

// severed reports whether traffic a→b vanishes: either side crashed.
func (f *faultFabric) severed(a, b int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dead[a] || f.dead[b]
}

type faultyEndpoint struct {
	fab  *faultFabric
	rank int
}

func (e *faultyEndpoint) Rank() int { return e.fab.inner[e.rank].Rank() }
func (e *faultyEndpoint) Size() int { return e.fab.inner[e.rank].Size() }

func (e *faultyEndpoint) SendCtx(ctx context.Context, to int, tag string, payload []byte) error {
	if err := e.fab.tick(e.rank); err != nil {
		return err
	}
	ps := e.fab.pairs[e.rank][to]
	ps.mu.Lock()
	defer ps.mu.Unlock()

	cfg := e.fab.cfg
	if cfg.Drop > 0 && ps.rng.Float64() < cfg.Drop && ps.consecDrops < maxConsecDrops {
		ps.consecDrops++
		mFaultDrops.Inc()
		health.Flight().Record("fault", -1, e.rank, "drop", 0)
		return fmt.Errorf("parallel: injected drop %d→%d %q: %w", e.rank, to, tag, ErrTransient)
	}
	ps.consecDrops = 0

	if d := cfg.SlowRank[e.rank]; d > 0 {
		// Sleeping under the pair lock delays the whole FIFO stream,
		// preserving order (and therefore numerics).
		mFaultSlow.Inc()
		time.Sleep(d)
	}
	if e.fab.severed(e.rank, to) {
		return nil // black hole: the bytes vanish, the sender never knows
	}
	return e.fab.inner[e.rank].SendCtx(ctx, to, tag, payload)
}

func (e *faultyEndpoint) RecvCtx(ctx context.Context, from int, tag string) ([]byte, error) {
	if err := e.fab.tick(e.rank); err != nil {
		return nil, err
	}
	return e.fab.inner[e.rank].RecvCtx(ctx, from, tag)
}
