package acache

import (
	"sort"
	"sync"
)

// Bounded wraps a Store with a byte-capacity bound — the paper's
// storage-cost analysis (§5.2) assumes the cache fits in flash; when it
// does not, PAC degrades gracefully by recomputing the samples that
// found no room through the backbone (the core framework's miss path).
//
// The policy is keep-residents: a newcomer that does not fit is turned
// away, and a resident is never displaced by one. Training reads every
// sample exactly once per epoch (data.Loader reshuffles a full scan),
// so a hit needs its entry to have stayed resident across the epoch
// boundary: hits per epoch ≤ resident entries under any policy, and
// never giving a slot away reaches that ceiling. Recency order (LRU)
// does the opposite — under a once-per-epoch scan it evicts exactly
// what the next epoch reads first.
type Bounded struct {
	mu       sync.Mutex
	inner    Store
	maxBytes int64 // the bound NewBounded was given; Clear returns to it
	bound    int64 // admission bound in force: maxBytes until Shed lowers it
	tooBig   int64 // smallest payload turned away since room was last made; 0 = none yet
	evicted  int64
}

// NewBounded caps inner at maxBytes of stored payload (inner.Bytes():
// what an entry costs once stored, so a half-precision inner store
// holds twice the entries).
func NewBounded(inner Store, maxBytes int64) *Bounded {
	return &Bounded{inner: inner, maxBytes: maxBytes, bound: maxBytes}
}

// Put implements Store. A new id is admitted only if the inner store
// still fits under the bound with it; otherwise it is turned away
// silently (the caller's miss path handles it) and counted in Evicted.
// Only the inner store knows what an entry costs once stored, so the
// first newcomer that does not fit is stored, measured and taken back
// out; until Shed or Clear makes room, every later newcomer at least
// that large is turned away without touching the inner store.
// Overwriting a resident id is not a newcomer.
func (b *Bounded) Put(id int, taps Entry) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tooBig > 0 && taps.size() >= b.tooBig && !b.inner.Has(id) {
		b.turnAway()
		return nil
	}
	if err := b.inner.Put(id, taps); err != nil {
		return err
	}
	if b.inner.Bytes() > b.bound {
		b.dropFromInner(id)
		b.tooBig = taps.size()
		b.turnAway()
	}
	return nil
}

func (b *Bounded) turnAway() {
	b.evicted++
	mBoundedRejects.Inc()
}

// dropFromInner removes one entry from the wrapped store. Store has no
// per-entry delete; every provided store offers one through this
// helper interface.
func (b *Bounded) dropFromInner(id int) {
	type deleter interface{ Delete(id int) }
	if d, ok := b.inner.(deleter); ok {
		d.Delete(id)
	}
}

// Get implements Store.
func (b *Bounded) Get(id int) (Entry, bool) { return b.inner.Get(id) }

// Has implements Store.
func (b *Bounded) Has(id int) bool { return b.inner.Has(id) }

// IDs implements Store.
func (b *Bounded) IDs() []int { return b.inner.IDs() }

// Len implements Store.
func (b *Bounded) Len() int { return b.inner.Len() }

// Bytes implements Store.
func (b *Bounded) Bytes() int64 { return b.inner.Bytes() }

// Stats implements Store.
func (b *Bounded) Stats() Stats { return b.inner.Stats() }

// Clear implements Store and restores the bound NewBounded was given.
func (b *Bounded) Clear() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bound, b.tooBig = b.maxBytes, 0
	return b.inner.Clear()
}

// Evicted returns how many entries the bound has pushed out: newcomers
// turned away by Put plus residents removed by Shed.
func (b *Bounded) Evicted() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.evicted
}

// Shed removes residents, highest sample id first, until the cache
// payload is at or below targetBytes, returning how many entries and
// bytes it released. It is the memory-pressure relief valve: pac-train
// subscribes it to the ledger's critical watermark
// (memledger.Ledger.OnPressure), trading recomputes for RAM. The relief
// sticks: the admission bound drops to targetBytes as well, so the next
// epoch's recomputed samples are not admitted straight back (Clear
// resets it). Shed(0) empties the cache.
func (b *Bounded) Shed(targetBytes int64) (entries int, freed int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bound = min(b.bound, targetBytes)
	b.tooBig = 0
	before := b.inner.Bytes()
	ids := b.inner.IDs()
	sort.Sort(sort.Reverse(sort.IntSlice(ids)))
	for _, id := range ids {
		if b.inner.Bytes() <= targetBytes {
			break
		}
		b.dropFromInner(id)
		entries++
	}
	b.evicted += int64(entries)
	mBoundedSheds.Add(int64(entries))
	return entries, before - b.inner.Bytes()
}
