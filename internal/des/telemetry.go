package des

import "repro/internal/telemetry"

// Fault-path instrument handles; nil (no-op) until Instrument is called.
var (
	mEvictNodeFail  *telemetry.Counter
	mEvictShock     *telemetry.Counter
	mReadmissions   *telemetry.Counter
	mReclaimedWatts *telemetry.Counter
	mNodeFailures   *telemetry.Counter
	mNodeRecoveries *telemetry.Counter
	mShocks         *telemetry.Counter
)

// Instrument registers the fault-path counters, which both modes
// count, on r. Passing nil disables them. Call before running
// simulations concurrently.
func Instrument(r *telemetry.Registry) {
	const evHelp = "Running jobs evicted by the fault engine, by cause."
	mEvictNodeFail = r.Counter("cluster_evictions_total", evHelp, "cause", "node-failure")
	mEvictShock = r.Counter("cluster_evictions_total", evHelp, "cause", "budget-shock")
	mReadmissions = r.Counter("cluster_readmissions_total",
		"Evicted jobs returned to the queue head with remaining work.")
	mReclaimedWatts = r.Counter("cluster_budget_reclaimed_watts_total",
		"Power reclaimed into the pool by fault-driven evictions.")
	mNodeFailures = r.Counter("cluster_node_failures_total",
		"Node outage events applied by the fault engine.")
	mNodeRecoveries = r.Counter("cluster_node_recoveries_total",
		"Node recovery events applied by the fault engine.")
	mShocks = r.Counter("cluster_budget_shocks_total",
		"Budget drops applied by the fault engine, injected or scheduled.")
}
