// Memory pool for kernel buffers: power-of-two size-class free lists
// with ownership canaries. The training hot path allocates every
// intermediate and gradient buffer through Get/GetTensor and returns
// them at step boundaries (autograd.Release), so
// steady-state training runs at near-zero garbage per step — the
// allocator discipline PAC needs on memory-starved edge devices.
//
// Ownership rules:
//
//   - Buffers handed out by Get/GetTensor are owned by the caller until
//     Put/PutTensor returns them. Putting the same buffer twice panics.
//   - Put of a slice the pool never issued is rejected (returns false),
//     never adopted: the pool cannot verify a foreign slice is unaliased.
//     This makes blanket release sweeps (a graph teardown that frees
//     every intermediate it can) safe over mixed pooled/foreign tensors.
//   - Pooled buffers carry a hidden canary element past their capacity
//     and are poisoned while on the free list; a write through a stale
//     alias after release is detected at the next Get and panics.
package tensor

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"pac/internal/memledger"
)

const (
	// minClassBits..maxClassBits bound the pooled size classes:
	// 32 floats (128 B) up to 16M floats (64 MiB). Requests outside the
	// range fall through to the regular allocator.
	minClassBits = 5
	maxClassBits = 24

	// poisonLen elements at the front of a free buffer hold the poison
	// pattern while it sits in the pool; Get verifies them to catch
	// writes through stale aliases (write-after-release).
	poisonLen = 8
)

// canaryBits/poisonBits are NaN payloads: they never occur as results of
// ordinary arithmetic on finite training data, and NaN compares unequal
// to everything, so they must be compared bitwise.
const (
	canaryBits = 0x7fc0dead
	poisonBits = 0x7fc0beef
)

var (
	canaryVal = math.Float32frombits(canaryBits)
	poisonVal = math.Float32frombits(poisonBits)
)

// poolStats counts allocator traffic (atomic; exported via PoolStats
// and the telemetry bridge in metrics.go).
type poolStats struct {
	hits     atomic.Int64
	misses   atomic.Int64
	puts     atomic.Int64
	rejected atomic.Int64
}

// pool is the process-wide free list, one stack per size class.
type pool struct {
	mu   sync.Mutex
	free [maxClassBits + 1][][]float32
	// member tracks buffers currently ON the free list by their backing
	// array, to turn a double Put into a panic at the second Put (not a
	// silent aliasing bug three steps later). Checked-out buffers are
	// deliberately not tracked: a map entry would pin every live buffer.
	member map[*float32]struct{}

	bytesPooled      atomic.Int64 // bytes sitting on free lists
	bytesOutstanding atomic.Int64 // bytes of pooled-class buffers checked out to callers
	stats            poolStats
}

var global = &pool{member: make(map[*float32]struct{})}

// Memory-ledger accounts mirroring the pool's two populations: bytes
// checked out to callers (pool.inuse) and bytes parked on free lists
// (pool.free). Requests outside the pooled class range fall through to
// the regular allocator and are invisible here — the pool cannot see
// their release.
var (
	memInuse = memledger.Default().Account("pool.inuse")
	memFree  = memledger.Default().Account("pool.free")
)

// classFor returns the size-class bit width for a request of n floats,
// or -1 if the request is outside the pooled range.
func classFor(n int) int {
	if n == 0 || n > 1<<maxClassBits {
		return -1
	}
	c := minClassBits
	for 1<<c < n {
		c++
	}
	return c
}

// Get returns a zeroed []float32 of length n backed by the pool. The
// caller owns it until Put.
func Get(n int) []float32 {
	out := getDirty(n)
	clear(out)
	return out
}

// getDirty is Get without the zeroing: a recycled buffer keeps whatever
// its last owner and the poison left in it. Only a kernel that writes
// every element before anything reads one may take it — the products
// (accumRows owns each output row it touches) and the transposed panel
// (transposeRows writes every element of it). The canary and poison
// checks run as on every Get.
func getDirty(n int) []float32 {
	c := classFor(n)
	if c < 0 {
		global.stats.misses.Add(1)
		return make([]float32, n)
	}
	g := global
	g.mu.Lock()
	stack := g.free[c]
	classBytes := int64(1<<c) * 4
	if len(stack) == 0 {
		g.mu.Unlock()
		g.stats.misses.Add(1)
		g.bytesOutstanding.Add(classBytes)
		memInuse.Reserve(classBytes)
		// One hidden element past the class size carries the ownership
		// canary; Put recovers the class from the capacity and verifies
		// the canary before accepting the buffer back.
		buf := make([]float32, (1<<c)+1)
		buf[1<<c] = canaryVal
		return buf[:n]
	}
	full := stack[len(stack)-1]
	g.free[c] = stack[:len(stack)-1]
	delete(g.member, &full[0])
	g.mu.Unlock()
	g.bytesPooled.Add(-classBytes)
	g.bytesOutstanding.Add(classBytes)
	memFree.Release(classBytes)
	memInuse.Reserve(classBytes)
	g.stats.hits.Add(1)
	for i := 0; i < poisonLen; i++ {
		if math.Float32bits(full[i]) != poisonBits {
			panic("tensor: pooled buffer modified after release (stale alias write)")
		}
	}
	return full[:n]
}

// Put returns a buffer obtained from Get to the pool. It reports whether
// the buffer was accepted; slices the pool never issued are rejected
// (the pool cannot prove they are unaliased). Putting the same buffer
// twice panics.
func Put(x []float32) bool {
	c, full, ok := recoverBuf(x)
	if !ok {
		global.stats.rejected.Add(1)
		return false
	}
	for i := 0; i < poisonLen; i++ {
		full[i] = poisonVal
	}
	g := global
	g.mu.Lock()
	if _, dup := g.member[&full[0]]; dup {
		g.mu.Unlock()
		panic("tensor: double Put of pooled buffer")
	}
	g.member[&full[0]] = struct{}{}
	g.free[c] = append(g.free[c], full)
	g.mu.Unlock()
	classBytes := int64(1<<c) * 4
	g.bytesPooled.Add(classBytes)
	g.bytesOutstanding.Add(-classBytes)
	memInuse.Release(classBytes)
	memFree.Reserve(classBytes)
	g.stats.puts.Add(1)
	return true
}

// recoverBuf maps a checked-out slice back to its full class buffer by
// re-extending to capacity and verifying the hidden canary. A foreign
// slice fails either the capacity-shape or the canary check.
func recoverBuf(x []float32) (class int, full []float32, ok bool) {
	capn := cap(x)
	if capn < (1<<minClassBits)+1 {
		return 0, nil, false
	}
	c := classFor(capn - 1)
	if c < 0 || capn != (1<<c)+1 {
		return 0, nil, false
	}
	full = x[:capn:capn]
	if math.Float32bits(full[1<<c]) != canaryBits {
		return 0, nil, false
	}
	return c, full, true
}

// shellPool recycles Tensor headers (struct + shape slice) so pooled
// tensor allocation is header-free on the steady-state path.
var shellPool = sync.Pool{New: func() any { return &Tensor{shape: make([]int, 0, 4)} }}

// GetTensor returns a zeroed pooled tensor of the given shape. Return it
// with PutTensor (or a release sweep that calls Put on its Data).
func GetTensor(shape ...int) *Tensor {
	t := shellPool.Get().(*Tensor)
	t.shape = append(t.shape[:0], shape...)
	t.Data = Get(numel(shape))
	return t
}

// PutTensor returns t's buffer to the pool and recycles the header. The
// caller must not use t afterwards. If the buffer is rejected as foreign
// the tensor is left untouched (it may be shared) and false is returned.
func PutTensor(t *Tensor) bool {
	if t == nil || t.Data == nil {
		return false
	}
	if !Put(t.Data) {
		return false
	}
	t.Data = nil
	t.shape = t.shape[:0]
	shellPool.Put(t)
	return true
}

// PutShell recycles only the tensor header, leaving the data buffer
// alone. Release sweeps use it for aliased views (Reshape, in-place op
// outputs) whose shared buffer was already returned through another
// view. The caller must not use t afterwards.
func PutShell(t *Tensor) {
	if t == nil {
		return
	}
	t.Data = nil
	t.shape = t.shape[:0]
	shellPool.Put(t)
}

// PoolStats is a snapshot of allocator traffic. BytesOutstanding is
// the class-rounded size of every pooled buffer currently checked out
// to callers — the pool-pressure number BytesPooled (free-list bytes)
// cannot show.
type PoolStats struct {
	Hits, Misses, Puts, Rejected int64
	BytesPooled                  int64
	BytesOutstanding             int64
}

// ReadPoolStats snapshots the global pool counters.
func ReadPoolStats() PoolStats {
	g := global
	return PoolStats{
		Hits:             g.stats.hits.Load(),
		Misses:           g.stats.misses.Load(),
		Puts:             g.stats.puts.Load(),
		Rejected:         g.stats.rejected.Load(),
		BytesPooled:      g.bytesPooled.Load(),
		BytesOutstanding: g.bytesOutstanding.Load(),
	}
}

func (s PoolStats) String() string {
	total := s.Hits + s.Misses
	hitRate := 0.0
	if total > 0 {
		hitRate = float64(s.Hits) / float64(total) * 100
	}
	return fmt.Sprintf("pool: %d gets (%.1f%% hit), %d puts, %d rejected, %.1f KiB pooled, %.1f KiB outstanding",
		total, hitRate, s.Puts, s.Rejected, float64(s.BytesPooled)/1024, float64(s.BytesOutstanding)/1024)
}
