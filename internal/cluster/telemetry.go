package cluster

import "repro/internal/telemetry"

// Scheduler instrument handles; nil (no-op) until Instrument is called.
var (
	mAdmissions *telemetry.Counter
	mQueueDepth *telemetry.Gauge
	mActiveJobs *telemetry.Gauge
)

// Instrument registers the cluster scheduler's admission metrics on r.
// Passing nil disables them. The fault-path counters of queue runs are
// registered by des.Instrument. Call before running queue simulations
// concurrently.
func Instrument(r *telemetry.Registry) {
	mAdmissions = r.Counter("cluster_admissions_total",
		"Jobs admitted onto nodes (re-admissions after eviction included).")
	mQueueDepth = r.Gauge("cluster_queue_depth",
		"Jobs still waiting after the latest admission pass.")
	mActiveJobs = r.Gauge("cluster_active_jobs",
		"Jobs running after the latest admission pass.")
}

// ObserveAdmissionPass records one admission pass of a queue engine:
// started jobs count as admissions, and the gauges take the number of
// jobs still waiting and running after the pass. Admit touches no
// metrics, so the engine that admits through it (internal/des) records
// each pass here.
func ObserveAdmissionPass(started, waiting, running int) {
	mAdmissions.Add(float64(started))
	mQueueDepth.Set(float64(waiting))
	mActiveJobs.Set(float64(running))
}
