package parallel

import (
	"fmt"
	"testing"

	"pac/internal/memledger"
	"pac/internal/model"
	"pac/internal/peft"
)

// TestPipelinePerStageLedgerPeaks drives an unbalanced stage plan through
// the 1F1B schedule with one memory ledger per simulated device and
// checks that the ledgers reproduce the expected shape: every stage
// retains activations at some point (nonzero peak), the peaks differ
// across an unbalanced plan, and every reservation is settled by the
// matching backward (zero balance after the step).
func TestPipelinePerStageLedgerPeaks(t *testing.T) {
	b := makeBatch(8)
	m := model.New(model.Tiny())
	tech := peft.New(peft.ParallelAdapters, m, peft.Options{Reduction: 4})
	n := len(m.Blocks)
	// Unbalanced on purpose: stage 0 gets one block, stage 1 two, stage 2
	// the rest. Combined with the 1F1B warmup depth (stage s holds up to
	// S-s micro-batches in flight) the per-device peaks must differ.
	e := NewPipeline(m, tech, 3, []int{0, 1, 3, n}, 4, lr)

	ledgers := make([]*memledger.Ledger, e.Stages())
	for s := range ledgers {
		ledgers[s] = memledger.New(fmt.Sprintf("dev%d", s))
	}
	e.Mem = func(stage int) *memledger.Account {
		return ledgers[stage].Account("pipeline.activations")
	}

	mustStep(t, e, b)

	peaks := make([]int64, e.Stages())
	for s, l := range ledgers {
		acct := l.Account("pipeline.activations")
		if acct.Bytes() != 0 {
			t.Errorf("stage %d: %d bytes still reserved after the step", s, acct.Bytes())
		}
		if acct.Peak() == 0 {
			t.Errorf("stage %d: peak is zero; ledger never saw a reservation", s)
		}
		if res, rel := acct.Counts(); res != rel || res == 0 {
			t.Errorf("stage %d: %d reserves vs %d releases", s, res, rel)
		}
		peaks[s] = acct.Peak()
	}
	for i := 0; i < len(peaks); i++ {
		for j := i + 1; j < len(peaks); j++ {
			if peaks[i] == peaks[j] {
				t.Errorf("stages %d and %d report identical peaks (%d bytes); unbalanced plan should differ", i, j, peaks[i])
			}
		}
	}
	// The warmup depth means stage 0 holds the most concurrent
	// micro-batches; with this plan it must out-peak the last stage's
	// single in-flight context.
	if peaks[0] <= peaks[len(peaks)-1] {
		t.Errorf("stage 0 peak %d not above last stage peak %d despite deeper warmup", peaks[0], peaks[len(peaks)-1])
	}

	// A second step from the same engine must not leave a residue either.
	mustStep(t, e, b)
	for s, l := range ledgers {
		if got := l.Account("pipeline.activations").Bytes(); got != 0 {
			t.Errorf("stage %d: %d bytes leaked after second step", s, got)
		}
	}
}
