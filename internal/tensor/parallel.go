package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxWorkers bounds the number of shards parallel kernels split work
// into. It is read concurrently by every kernel call and written by
// SetMaxWorkers, hence atomic.
var maxWorkers atomic.Int32

func init() { maxWorkers.Store(int32(runtime.NumCPU())) }

// SetMaxWorkers overrides the kernel worker count (for tests and for the
// device simulator, which models single-core edge accelerators). n < 1
// resets to NumCPU. It returns the previous value. Safe to call while
// kernels are running: in-flight calls finish with the shard count they
// started with.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = runtime.NumCPU()
	}
	return int(maxWorkers.Swap(int32(n)))
}

// MaxWorkers returns the current kernel worker bound.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// kern is one kernel dispatch: a plain shard function plus its operands
// in flat fields. Hot kernels fill a pooled kern instead of capturing a
// closure, so dispatch itself allocates nothing — the closure a
// `func(start, end int)` literal would heap-allocate at every call site
// is the single largest allocation source in a pooled-tensor training
// step. Chunks are claimed with an atomic cursor so any number of
// helpers (persistent workers plus the caller itself) can drain one
// kern without coordination; wg counts chunk completions.
type kern struct {
	fn func(k *kern, start, end int)

	// Operand fields, meaning assigned per kernel. Slices must be
	// cleared on release so a pooled kern never pins tensor buffers.
	dst, a, b, c, d, e []float32
	i8a                []int8
	q                  *QuantizedWeight
	i0, i1, i2         int
	f0                 float32
	closure            func(start, end int) // parallelFor compatibility

	n, chunk int
	next     atomic.Int64
	wg       sync.WaitGroup
	// refs counts live references (caller + accepted queue offers); the
	// last one to drop its reference recycles the kern. This is what
	// makes pooling safe: a stale queue entry holds a reference, so the
	// kern cannot be reinitialized while a worker might still read it.
	refs atomic.Int32
}

var kernPool = sync.Pool{New: func() any { return new(kern) }}

func getKern() *kern { return kernPool.Get().(*kern) }

func (k *kern) release() {
	if k.refs.Add(-1) != 0 {
		return
	}
	k.fn = nil
	k.dst, k.a, k.b, k.c, k.d, k.e = nil, nil, nil, nil, nil, nil
	k.i8a, k.q = nil, nil
	k.closure = nil
	kernPool.Put(k)
}

// run drains chunks until the kern is exhausted. The caller invokes it
// directly (so runKern never deadlocks even if every worker is busy),
// and workers invoke it for kerns picked off the queue. Nested kernel
// calls are safe for the same reason: the nesting goroutine drains its
// own inner kern.
func (k *kern) run() {
	for {
		start := int(k.next.Add(int64(k.chunk))) - k.chunk
		if start >= k.n {
			return
		}
		end := start + k.chunk
		if end > k.n {
			end = k.n
		}
		k.fn(k, start, end)
		k.wg.Done()
	}
}

// workers are persistent: started once, fed through a bounded queue.
// runKern offers kerns with a non-blocking send — if the queue is full
// or no worker is free, the caller simply computes the chunks itself,
// which is exactly the right degradation under load.
var (
	startWorkersOnce sync.Once
	kernQueue        chan *kern
)

func startWorkers() {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	kernQueue = make(chan *kern, 8*n)
	for i := 0; i < n; i++ {
		go func() {
			for k := range kernQueue {
				k.run()
				k.release()
			}
		}()
	}
}

// runKern executes k.fn over [0, n) in contiguous chunks across up to
// maxWorkers shards, blocking until all iterations complete, then
// recycles k (the caller must not touch it afterwards). Sharding is
// deterministic (chunk boundaries depend only on n and the worker bound
// at call time), so results are identical regardless of which goroutine
// executes which chunk.
func runKern(k *kern, n int) {
	if n <= 0 {
		k.refs.Store(1)
		k.release()
		return
	}
	w := int(maxWorkers.Load())
	if w > n {
		w = n
	}
	if w <= 1 {
		k.n, k.chunk = n, n
		k.next.Store(0)
		k.fn(k, 0, n)
		k.refs.Store(1)
		k.release()
		return
	}
	startWorkersOnce.Do(startWorkers)
	chunk := (n + w - 1) / w
	nchunks := (n + chunk - 1) / chunk
	k.n, k.chunk = n, chunk
	k.next.Store(0)
	k.wg.Add(nchunks)
	k.refs.Store(1) // the caller's reference
	// Offer the kern to at most nchunks-1 workers; the caller is the
	// final executor and backstop. Each accepted offer is a reference.
	for offers := nchunks - 1; offers > 0; offers-- {
		k.refs.Add(1)
		select {
		case kernQueue <- k:
		default:
			// Queue full: caller handles the rest.
			k.refs.Add(-1)
			offers = 1
		}
	}
	k.run()
	k.wg.Wait()
	k.release()
}

// shardClosure adapts a captured func(start, end) to the kern shard
// signature, for cold-path callers of parallelFor.
func shardClosure(k *kern, start, end int) { k.closure(start, end) }

// parallelFor runs fn over [0, n) in contiguous chunks across up to
// maxWorkers shards, blocking until all iterations complete. The func
// literal heap-allocates at the call site; kernels on the training hot
// path use getKern/runKern with a plain shard function instead.
func parallelFor(n int, fn func(start, end int)) {
	k := getKern()
	k.fn = shardClosure
	k.closure = fn
	runKern(k, n)
}
