// Package wire connects the telemetry registry to every instrumented
// layer of the repository in one call, so commands do not need to know
// which packages expose metrics. It exists below cmd/ and above the
// instrumented packages; internal/telemetry itself stays import-free of
// the rest of the tree.
package wire

import (
	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/des"
	"repro/internal/dyncoord"
	"repro/internal/evalpool"
	"repro/internal/faults"
	"repro/internal/rapl"
	"repro/internal/telemetry"
)

// Instrument points the deterministic control-stack layers (coord,
// dyncoord, cluster, des, rapl, faults) at r. These counters depend only on
// the simulated decisions, which are byte-identical across worker
// counts, so a registry wired this way snapshots reproducibly — the
// golden tests rely on that. Passing nil disables instrumentation.
//
// Not safe to call concurrently with instrumented code: wire first,
// then run.
func Instrument(r *telemetry.Registry) {
	coord.Instrument(r)
	dyncoord.Instrument(r)
	cluster.Instrument(r)
	des.Instrument(r)
	rapl.Instrument(r)
	faults.Instrument(r)
}

// InstrumentEngine additionally exposes the shared evalpool engine's
// cache and worker statistics on r. They are kept out of Instrument
// because cache hit/miss/sim-run counts are racy under parallel workers
// (concurrent duplicate computation), which would break byte-identical
// golden snapshots. Long-running servers want them; golden tests do not.
func InstrumentEngine(r *telemetry.Registry) {
	evalpool.RegisterDefaultMetrics(r)
}
