package parallel

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pac/internal/health"
	"pac/internal/tensor"
)

// FaultConfig describes a deterministic, seeded fault schedule injected
// by a FaultyTransport. Each ordered rank pair gets its own RNG stream
// seeded from (Seed, from, to), and faults are drawn in per-pair send
// order — engines communicate FIFO per pair, so the same seed replays
// the exact same fault sequence on every run, over any inner fabric.
type FaultConfig struct {
	Seed int64

	// Drop is the per-send probability of a transient drop: SendCtx
	// fails with ErrTransient and nothing is delivered, so a retrying
	// sender eventually gets through. MaxConsecutiveDrops bounds a
	// pair's bad streak (default 2) so bounded retries always suffice.
	Drop                float64
	MaxConsecutiveDrops int

	// Delay is the per-send probability of an injected latency spike of
	// up to MaxDelay (uniform, RNG-derived). Delays are applied on the
	// sender's side of the pair's FIFO stream, so ordering — and hence
	// engine numerics — is preserved.
	Delay    float64
	MaxDelay time.Duration

	// Duplicate is the per-send probability the message is delivered
	// twice. The decorator frames every message with a per-pair sequence
	// number and discards stale deliveries on the receiver, so
	// duplicates never reach the engine.
	Duplicate float64

	// Crash maps rank → the number of transport operations (sends +
	// recvs on that rank's endpoint) after which the rank dies
	// mid-epoch: its own operations fail with ErrRankDead, messages
	// addressed to it vanish, and peers waiting on it time out.
	Crash map[int]int

	// SlowRank maps rank → a fixed extra latency added to every send
	// that rank makes — a persistent straggler (thermally throttled or
	// link-degraded device) rather than Delay's random spikes. The sleep
	// happens under the pair lock so FIFO order, and hence numerics, are
	// preserved.
	SlowRank map[int]time.Duration

	// Partition lists disjoint rank groups; messages between different
	// groups vanish silently (the classic split-brain network
	// partition). Ranks absent from every group communicate freely.
	Partition [][]int
}

func (c FaultConfig) maxConsecDrops() int {
	if c.MaxConsecutiveDrops > 0 {
		return c.MaxConsecutiveDrops
	}
	return 2
}

// faultTag is the tag used on the inner transport: the decorator frames
// (seq, real tag, payload) itself so it can filter duplicates below the
// tag-verification layer.
const faultTag = "__fault__"

// pairState is the per-ordered-pair fault state. The RNG is consumed
// strictly in send order under mu, which is what makes the schedule
// deterministic.
type pairState struct {
	mu          sync.Mutex
	rng         *rand.Rand
	sendSeq     uint64
	recvSeq     uint64
	consecDrops int
}

// faultFabric is the shared state behind one WrapFaulty call.
type faultFabric struct {
	cfg   FaultConfig
	inner []Transport
	pairs [][]*pairState

	mu     sync.Mutex
	ops    []int  // per-rank transport op count (crash trigger)
	dead   []bool // per-rank crashed flag
	groups []int  // partition group per rank, -1 = unpartitioned
}

// WrapFaulty decorates a fabric's endpoints with seeded fault
// injection. All endpoints must come from one call so they share the
// schedule state; pass cfg with zero probabilities and no crashes for a
// transparent (but still seq-framed) wrapper.
func WrapFaulty(endpoints []Transport, cfg FaultConfig) []Transport {
	n := len(endpoints)
	f := &faultFabric{
		cfg:    cfg,
		inner:  endpoints,
		pairs:  make([][]*pairState, n),
		ops:    make([]int, n),
		dead:   make([]bool, n),
		groups: make([]int, n),
	}
	for i := range f.pairs {
		f.groups[i] = -1
		f.pairs[i] = make([]*pairState, n)
		for j := range f.pairs[i] {
			// Distinct, seed-stable stream per ordered pair.
			src := rand.NewSource(cfg.Seed*1_000_003 + int64(i)*4096 + int64(j))
			f.pairs[i][j] = &pairState{rng: rand.New(src)}
		}
	}
	for g, group := range cfg.Partition {
		for _, r := range group {
			if r >= 0 && r < n {
				f.groups[r] = g
			}
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

// severed reports whether traffic a→b vanishes: either side crashed or
// the pair straddles a partition boundary.
func (f *faultFabric) severed(a, b int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[a] || f.dead[b] {
		return true
	}
	ga, gb := f.groups[a], f.groups[b]
	return ga >= 0 && gb >= 0 && ga != gb
}

type faultyEndpoint struct {
	fab  *faultFabric
	rank int
}

func (e *faultyEndpoint) Rank() int { return e.fab.inner[e.rank].Rank() }
func (e *faultyEndpoint) Size() int { return e.fab.inner[e.rank].Size() }

// wrapFrame prepends the per-pair sequence number and the real tag.
func wrapFrame(seq uint64, tag string, payload []byte) []byte {
	out := binary.LittleEndian.AppendUint64(make([]byte, 0, 12+len(tag)+len(payload)), seq)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(tag)))
	return append(append(out, tag...), payload...)
}

func unwrapFrame(raw []byte) (seq uint64, tag string, payload []byte, err error) {
	r := tensor.NewReader(raw)
	seq = r.U64()
	tag = string(r.Bytes(int(r.U32())))
	payload = r.Bytes(len(raw) - 12 - len(tag))
	if err := r.End(); err != nil {
		return 0, "", nil, fmt.Errorf("parallel: fault frame: %w", err)
	}
	return seq, tag, payload, nil
}

func (e *faultyEndpoint) SendCtx(ctx context.Context, to int, tag string, payload []byte) error {
	if err := e.fab.tick(e.rank); err != nil {
		return err
	}
	ps := e.fab.pairs[e.rank][to]
	ps.mu.Lock()
	defer ps.mu.Unlock()

	// Always draw the full fault tuple so the RNG stream advances
	// identically regardless of which faults fire.
	cfg := e.fab.cfg
	dropRoll := ps.rng.Float64()
	delayRoll := ps.rng.Float64()
	delayFrac := ps.rng.Float64()
	dupRoll := ps.rng.Float64()

	if cfg.Drop > 0 && dropRoll < cfg.Drop && ps.consecDrops < cfg.maxConsecDrops() {
		ps.consecDrops++
		mFaultDrops.Inc()
		health.Flight().Record("fault", -1, e.rank, "drop", 0)
		return fmt.Errorf("parallel: injected drop %d→%d %q: %w", e.rank, to, tag, ErrTransient)
	}
	ps.consecDrops = 0

	if cfg.Delay > 0 && delayRoll < cfg.Delay && cfg.MaxDelay > 0 {
		// Sleeping under the pair lock delays the whole FIFO stream,
		// preserving order (and therefore numerics).
		mFaultDelays.Inc()
		time.Sleep(time.Duration(delayFrac * float64(cfg.MaxDelay)))
	}

	if d, ok := cfg.SlowRank[e.rank]; ok && d > 0 {
		mFaultSlow.Inc()
		time.Sleep(d)
	}

	ps.sendSeq++
	if e.fab.severed(e.rank, to) {
		return nil // black hole: the bytes vanish, the sender never knows
	}
	frame := wrapFrame(ps.sendSeq, tag, payload)
	if err := e.fab.inner[e.rank].SendCtx(ctx, to, faultTag, frame); err != nil {
		return err
	}
	if cfg.Duplicate > 0 && dupRoll < cfg.Duplicate {
		mFaultDuplicates.Inc()
		if err := e.fab.inner[e.rank].SendCtx(ctx, to, faultTag, frame); err != nil {
			return err
		}
	}
	return nil
}

func (e *faultyEndpoint) RecvCtx(ctx context.Context, from int, tag string) ([]byte, error) {
	if err := e.fab.tick(e.rank); err != nil {
		return nil, err
	}
	for {
		raw, err := e.fab.inner[e.rank].RecvCtx(ctx, from, faultTag)
		if err != nil {
			return nil, err
		}
		seq, gotTag, payload, err := unwrapFrame(raw)
		if err != nil {
			return nil, err
		}
		ps := e.fab.pairs[from][e.rank]
		ps.mu.Lock()
		stale := seq <= ps.recvSeq
		if !stale {
			ps.recvSeq = seq
		}
		ps.mu.Unlock()
		if stale {
			continue // duplicate delivery — discard and keep reading
		}
		if gotTag != tag {
			return nil, fmt.Errorf("parallel: rank %d expected tag %q from %d, got %q: %w",
				e.rank, tag, from, gotTag, ErrTagMismatch)
		}
		return payload, nil
	}
}
