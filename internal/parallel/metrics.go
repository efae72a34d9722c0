package parallel

import "pac/internal/telemetry"

// Package-level metric handles, resolved once at init from the shared
// registry (see DESIGN.md "Observability" for the naming scheme). The
// hot path pays one atomic add per event; tests and multiple engines
// in one process share these series, which is fine for monotonic
// counters — rates, not absolute values, are the signal.
var (
	mSends       = telemetry.Default().Counter("pac_comm_sends_total")
	mSendBytes   = telemetry.Default().Counter("pac_comm_send_bytes_total")
	mSendRetries = telemetry.Default().Counter("pac_comm_send_retries_total")
	mRecvs       = telemetry.Default().Counter("pac_comm_recvs_total")
	mRecvBytes   = telemetry.Default().Counter("pac_comm_recv_bytes_total")

	mAllReduces   = telemetry.Default().Counter("pac_comm_allreduce_total")
	mAllReduceSec = telemetry.Default().Histogram("pac_comm_allreduce_seconds", nil)

	mRankFailures = telemetry.Default().Counter("pac_comm_rank_failures_total")

	mFaultDrops   = telemetry.Default().Counter("pac_fault_injected_total", "kind", "drop")
	mFaultCrashes = telemetry.Default().Counter("pac_fault_injected_total", "kind", "crash")
	mFaultSlow    = telemetry.Default().Counter("pac_fault_injected_total", "kind", "slow")

	mTokens       = telemetry.Default().Counter("pac_train_tokens_total")
	mTokensPerSec = telemetry.Default().Gauge("pac_train_tokens_per_second")

	// One per engine: the "engine" label of the whole-step series, and
	// the Engine of its whole-step health samples and flight events.
	engineDP     = newEngineMetrics("dp")
	engineHybrid = newEngineMetrics("hybrid")
	enginePP     = newEngineMetrics("pp")
)

// engineMetrics is what the step scaffold reports a completed step to.
type engineMetrics struct {
	name    string
	steps   *telemetry.Counter
	seconds *telemetry.Histogram
}

func newEngineMetrics(name string) *engineMetrics {
	return &engineMetrics{
		name:    name,
		steps:   telemetry.Default().Counter("pac_train_steps_total", "engine", name),
		seconds: telemetry.Default().Histogram("pac_train_step_seconds", nil, "engine", name),
	}
}

// batchTokens counts the input tokens of one mini-batch (the sum of
// valid encoder lengths) — the numerator of tokens/sec.
func batchTokens(lens []int) int64 {
	var n int64
	for _, l := range lens {
		n += int64(l)
	}
	return n
}
