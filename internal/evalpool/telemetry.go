package evalpool

import "repro/internal/telemetry"

// RegisterDefaultMetrics exposes the shared engine's counters on r as
// collector-backed series: values are read from Default().Stats() at
// snapshot time, so the engine keeps its own lock-free atomics and the
// hot evaluation path is untouched. A nil registry is a no-op.
//
// These series are NOT deterministic across worker counts: concurrent
// first derivations of one key may each run, so hit, miss and sim-run
// counts can differ run to run under workers > 1 even when the
// evaluation results are byte-identical. Keep them out of golden
// snapshots; the wire package registers them separately for this reason.
func RegisterDefaultMetrics(r *telemetry.Registry) {
	if r == nil {
		return
	}
	stat := func(f func(Stats) float64) func() float64 {
		return func() float64 { return f(Default().Stats()) }
	}
	r.CounterFunc("evalpool_requests_total",
		"Points evaluated by the shared engine.",
		stat(func(s Stats) float64 { return float64(s.Requests) }))
	r.CounterFunc("evalpool_sim_runs_total",
		"Simulator calls executed.",
		stat(func(s Stats) float64 { return float64(s.SimRuns) }))
	r.CounterFunc("evalpool_cache_hits_total",
		"Memo lookups answered from a stored derivation.",
		stat(func(s Stats) float64 { return float64(s.Hits) }))
	r.CounterFunc("evalpool_cache_misses_total",
		"Memo lookups that derived afresh.",
		stat(func(s Stats) float64 { return float64(s.Misses) }))
	r.CounterFunc("evalpool_cache_evictions_total",
		"Memo entries evicted (arbitrary victim) to respect the bound.",
		stat(func(s Stats) float64 { return float64(s.Evictions) }))
	r.GaugeFunc("evalpool_cache_entries",
		"Memo occupancy in simulated points of weight.",
		stat(func(s Stats) float64 { return float64(s.Entries) }))
	r.GaugeFunc("evalpool_cache_capacity",
		"Memo bound in points (0 = memoization disabled).",
		stat(func(s Stats) float64 { return float64(s.Capacity) }))
	r.GaugeFunc("evalpool_workers",
		"Worker bound of the shared engine.",
		stat(func(s Stats) float64 { return float64(s.Workers) }))
}
