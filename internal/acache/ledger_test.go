package acache

import (
	"testing"

	"pac/internal/memledger"
	"pac/internal/tensor"
)

func entryOfSize(floats int) Entry {
	return Entry{tensor.New(floats)}
}

// TestMemoryStoreLedger verifies the acache account mirrors the
// store's byte bookkeeping through put / replace / delete / clear.
// The account lives on the shared process ledger, so assertions are
// deltas from the test's baseline.
func TestMemoryStoreLedger(t *testing.T) {
	acct := memledger.Default().Account("acache")
	base := acct.Bytes()

	s := NewMemoryStore()
	s.Put(1, entryOfSize(100)) // +400
	s.Put(2, entryOfSize(50))  // +200
	if got := acct.Bytes() - base; got != 600 {
		t.Fatalf("ledger delta after puts = %d, want 600", got)
	}
	s.Put(1, entryOfSize(10)) // replace: -400 +40
	if got := acct.Bytes() - base; got != 240 {
		t.Fatalf("ledger delta after replace = %d, want 240", got)
	}
	if got := s.Bytes(); got != 240 {
		t.Fatalf("store bytes = %d, want 240", got)
	}
	s.Delete(2)
	if got := acct.Bytes() - base; got != 40 {
		t.Fatalf("ledger delta after delete = %d, want 40", got)
	}
	s.Clear()
	if got := acct.Bytes() - base; got != 0 {
		t.Fatalf("ledger delta after clear = %d, want 0", got)
	}
}

// TestBoundedShed verifies the pressure relief valve: Shed removes
// residents, highest id first, down to the target and the ledger
// account follows.
func TestBoundedShed(t *testing.T) {
	acct := memledger.Default().Account("acache")
	base := acct.Bytes()

	b := NewBounded(NewMemoryStore(), 1<<20)
	for id := 0; id < 10; id++ {
		b.Put(id, entryOfSize(25)) // 100 B each
	}
	b.Get(9) // a read protects nothing: the order is by id alone

	entries, freed := b.Shed(300)
	if b.Bytes() > 300 {
		t.Fatalf("bytes after shed = %d, want ≤ 300", b.Bytes())
	}
	if entries != 7 || freed != 700 {
		t.Fatalf("shed = (%d entries, %d bytes), want (7, 700)", entries, freed)
	}
	for id := 0; id < 10; id++ {
		if b.Has(id) != (id < 3) {
			t.Fatalf("after shedding to 3 entries Has(%d) = %v; want ids 0-2 left", id, b.Has(id))
		}
	}
	if got := acct.Bytes() - base; got != b.Bytes() {
		t.Fatalf("ledger delta = %d, store bytes = %d", got, b.Bytes())
	}

	// Shed(0) empties; evicted counter saw every drop.
	entries, _ = b.Shed(0)
	if entries != 3 || b.Len() != 0 {
		t.Fatalf("final shed = %d entries, len = %d", entries, b.Len())
	}
	if got := acct.Bytes() - base; got != 0 {
		t.Fatalf("ledger delta after full shed = %d, want 0", got)
	}
}
