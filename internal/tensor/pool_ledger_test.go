package tensor

import (
	"testing"

	"pac/internal/memledger"
)

// TestPoolLedgerReconciles is the acceptance check that the memory
// ledger's pool accounts are the same numbers ReadPoolStats reports:
// pool.inuse == BytesOutstanding and pool.free == BytesPooled, at any
// point in the checkout/return lifecycle. The pool is process-global,
// so the test asserts the invariant rather than absolute values.
func TestPoolLedgerReconciles(t *testing.T) {
	inuse := memledger.Default().Account("pool.inuse")
	free := memledger.Default().Account("pool.free")

	check := func(when string) {
		t.Helper()
		s := ReadPoolStats()
		if got := inuse.Bytes(); got != s.BytesOutstanding {
			t.Fatalf("%s: pool.inuse = %d, ReadPoolStats.BytesOutstanding = %d", when, got, s.BytesOutstanding)
		}
		if got := free.Bytes(); got != s.BytesPooled {
			t.Fatalf("%s: pool.free = %d, ReadPoolStats.BytesPooled = %d", when, got, s.BytesPooled)
		}
	}

	check("baseline")

	// A spread of class sizes, including one above the pooled range
	// (falls through to make, invisible to both views).
	bufs := make([][]float32, 0, 8)
	for _, n := range []int{32, 33, 1000, 4096, 1 << 20, (1 << 24) + 1} {
		bufs = append(bufs, Get(n))
	}
	check("after gets")

	for _, b := range bufs {
		Put(b) // the out-of-range buffer is rejected on both sides
	}
	check("after puts")

	// Recycled checkout (free-list hit moves bytes free→inuse).
	b := Get(4096)
	check("after recycled get")
	Put(b)
	check("after recycled put")

	// The tensor path routes through the same Get/Put.
	x := GetTensor(8, 64)
	check("tensor live")
	PutTensor(x)
	check("tensor released")

	// Outstanding must have moved at all during this test.
	if inuse.Peak() == 0 {
		t.Fatal("pool.inuse peak never moved")
	}
}
