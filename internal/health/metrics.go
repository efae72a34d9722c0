package health

import "pac/internal/telemetry"

// Metric handles resolved once at package init from the shared
// registry, following the pac_<area>_<noun>_<unit|total> scheme.
var (
	mReports        = telemetry.Default().Counter("pac_health_reports_total")
	mAlertStraggler = telemetry.Default().Counter("pac_health_alerts_total", "kind", "straggler")
	mAlertDrift     = telemetry.Default().Counter("pac_health_alerts_total", "kind", "drift")
	mFlightEvents   = telemetry.Default().Counter("pac_flight_events_total")
)
