package dyncoord

import (
	"fmt"

	"repro/internal/coord"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/units"
	"repro/internal/workload"
)

// PlanTableInputs is the table-builder hook for PlanCPUOrDegrade: it
// reports the budget breakpoints a precomputed plan table must place on
// its grid, and whether every profile the planner needs is available.
//
// Between two adjacent breakpoints every step of a plan is linear in
// the budget: each step is either phase-aware COORD (kinks at the
// phase profile's Algorithm 1 boundaries) or, when the phase budget is
// below its productive threshold, the memory-first fallback over the
// whole-workload profile (kinks at that baseline's clamp points). The
// returned set is the union of both, so a grid containing it makes
// interpolated plans exact.
//
// healthy is false when any phase profile or the whole-workload profile
// is missing — exactly the conditions under which PlanCPUOrDegrade
// degrades. Degraded pairs must not be table-served: the degraded path
// bypasses precomputed state the same way fault-mode execution bypasses
// the evalpool engine.
func PlanTableInputs(p hw.Platform, w workload.Workload) (breaks []units.Power, healthy bool, err error) {
	if p.Kind != hw.KindCPU {
		return nil, false, fmt.Errorf("dyncoord: platform %q is not a CPU platform", p.Name)
	}
	profs, err := PhaseProfiles(p, w)
	if err != nil {
		return nil, false, nil
	}
	static, err := profile.ProfileCPU(p, w)
	if err != nil {
		return nil, false, nil
	}
	for _, prof := range profs {
		breaks = append(breaks, coord.CPUBreakpoints(prof)...)
	}
	breaks = append(breaks, coord.CPUBreakpoints(static)...)
	breaks = append(breaks, coord.MemoryFirstBreakpoints(static)...)
	return breaks, true, nil
}
