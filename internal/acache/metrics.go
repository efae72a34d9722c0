package acache

import "pac/internal/telemetry"

// Cache metric handles on the shared registry, split by store kind so
// a run mixing RAM and flash caches stays legible. The store keeps its
// own Stats struct too (exact per-instance counts for tests); these
// series are the cross-instance aggregate the /metrics endpoint
// reports.
var (
	mMemHits   = telemetry.Default().Counter("pac_cache_ops_total", "store", "memory", "op", "hit")
	mMemMisses = telemetry.Default().Counter("pac_cache_ops_total", "store", "memory", "op", "miss")
	mMemPuts   = telemetry.Default().Counter("pac_cache_ops_total", "store", "memory", "op", "put")

	mDiskHits    = telemetry.Default().Counter("pac_cache_ops_total", "store", "disk", "op", "hit")
	mDiskMisses  = telemetry.Default().Counter("pac_cache_ops_total", "store", "disk", "op", "miss")
	mDiskPuts    = telemetry.Default().Counter("pac_cache_ops_total", "store", "disk", "op", "put")
	mDiskCorrupt = telemetry.Default().Counter("pac_cache_ops_total", "store", "disk", "op", "corrupt")

	// What a Bounded wrapper's byte bound cost: newcomers turned away
	// by Put and residents removed by Shed (together, Evicted()).
	mBoundedRejects = telemetry.Default().Counter("pac_cache_ops_total", "store", "bounded", "op", "reject")
	mBoundedSheds   = telemetry.Default().Counter("pac_cache_ops_total", "store", "bounded", "op", "shed")

	mSalvageVerified   = telemetry.Default().Counter("pac_cache_salvage_total", "outcome", "verified")
	mSalvageCorrupt    = telemetry.Default().Counter("pac_cache_salvage_total", "outcome", "corrupt")
	mSalvageMissing    = telemetry.Default().Counter("pac_cache_salvage_total", "outcome", "missing")
	mSalvageRecomputed = telemetry.Default().Counter("pac_cache_salvage_total", "outcome", "recomputed")
)
