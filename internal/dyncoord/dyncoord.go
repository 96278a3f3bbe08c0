// Package dyncoord implements dynamic, phase-aware power coordination —
// the paper's stated future work ("online dynamic power budgeting and
// distribution") and the remedy its Section 6.2 suggests for multi-phase
// applications whose irregular profiles "suggest the need of adaptive
// scheduling inside the application for best performance".
//
// Static COORD picks one allocation for a whole run from the workload's
// aggregate profile. Dynamic COORD profiles each execution phase
// separately and re-runs the coordination at every phase boundary, so a
// memory-heavy transpose phase and a compute-heavy FFT phase each get an
// allocation matched to their own critical power values — under the same
// node budget throughout.
package dyncoord

import (
	"fmt"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Step is one phase of a dynamic plan: the allocation COORD chose for it.
type Step struct {
	// Phase names the workload phase.
	Phase string
	// Weight is the phase's share of total work.
	Weight float64
	// Alloc is the allocation in force while the phase runs.
	Alloc core.Allocation
	// Status is COORD's verdict for this phase.
	Status coord.Status
	// FellBack reports that the phase's own profile was missing or
	// unreliable and a degraded policy produced the allocation instead
	// of phase-aware COORD.
	FellBack bool
}

// Plan is a per-phase allocation schedule for one workload and budget.
type Plan struct {
	Workload string
	Budget   units.Power
	Steps    []Step
}

// phaseWorkload wraps one phase as a standalone single-phase workload so
// the profiler and simulator can treat it independently.
func phaseWorkload(w *workload.Workload, i int) workload.Workload {
	ph := w.Phases[i]
	ph.Weight = 1
	return workload.Workload{
		Name:            fmt.Sprintf("%s/%s", w.Name, ph.Name),
		Suite:           w.Suite,
		Desc:            w.Desc,
		Kind:            w.Kind,
		PerfUnit:        w.PerfUnit,
		PerfPerUnitRate: w.PerfPerUnitRate,
		Phases:          []workload.Phase{ph},
	}
}

// PhaseProfiles extracts a critical-power profile for every phase of a
// CPU workload. The cost is one lightweight profile per distinct phase —
// still far below a full allocation sweep.
func PhaseProfiles(p hw.Platform, w workload.Workload) ([]profile.CPUProfile, error) {
	if p.Kind != hw.KindCPU {
		return nil, fmt.Errorf("dyncoord: platform %q is not a CPU platform", p.Name)
	}
	profs := make([]profile.CPUProfile, len(w.Phases))
	for i := range w.Phases {
		pw := phaseWorkload(&w, i)
		prof, err := profile.ProfileCPU(p, pw)
		if err != nil {
			return nil, fmt.Errorf("dyncoord: phase %q: %w", w.Phases[i].Name, err)
		}
		profs[i] = prof
	}
	return profs, nil
}

// PlanCPU builds a dynamic plan: COORD runs once per phase against that
// phase's own profile, always under the same node budget. Phases whose
// budget falls below their productive threshold inherit the static
// allocation for the whole workload instead of stalling the run.
func PlanCPU(p hw.Platform, w workload.Workload, budget units.Power) (Plan, error) {
	profs, err := PhaseProfiles(p, w)
	if err != nil {
		return Plan{}, err
	}
	staticProf, err := profile.ProfileCPU(p, w)
	if err != nil {
		return Plan{}, err
	}
	staticDecision := coord.CPU(staticProf, budget)

	mPlans.Inc()
	plan := Plan{Workload: w.Name, Budget: budget}
	for i, ph := range w.Phases {
		d := coord.CPU(profs[i], budget)
		if d.Status == coord.StatusTooSmall {
			// Fall back to the whole-workload decision; if that too is
			// rejected the plan reports it.
			d = staticDecision
			mStaticFallback.Inc()
		}
		mSteps.Inc()
		plan.Steps = append(plan.Steps, Step{
			Phase:  ph.Name,
			Weight: ph.Weight,
			Alloc:  d.Alloc,
			Status: d.Status,
		})
	}
	return plan, nil
}

// ProfileHealth marks whether a phase profile can be trusted by the
// planner.
type ProfileHealth int

// Profile health states.
const (
	// ProfileGood: the profile is present and trusted.
	ProfileGood ProfileHealth = iota
	// ProfileUnreliable: the profile exists but its measurements are
	// suspect (taken through a faulty sensor, stale after migration, ...).
	ProfileUnreliable
	// ProfileMissing: no profile could be taken at all.
	ProfileMissing
)

// String names the health state.
func (h ProfileHealth) String() string {
	switch h {
	case ProfileGood:
		return "good"
	case ProfileUnreliable:
		return "unreliable"
	case ProfileMissing:
		return "missing"
	default:
		return fmt.Sprintf("ProfileHealth(%d)", int(h))
	}
}

// PhaseProfile is a per-phase profile together with its health.
type PhaseProfile struct {
	Prof   profile.CPUProfile
	Health ProfileHealth
}

// conservativeProfile builds a critical-power profile from hardware
// constants alone — no measurement, nothing to trust. Maximum demands
// are the component physical maxima (stream-pattern peak for DRAM), so a
// memory-first split over it warrants memory generously and can never
// under-provision: the safe direction, per Section 3.4.2.
func conservativeProfile(p hw.Platform) profile.CPUProfile {
	cpu, dram := p.CPU, p.DRAM
	prof := profile.CPUProfile{Platform: p.Name, Workload: "(hardware-conservative)"}
	prof.Critical.CPUFloor = cpu.IdlePower
	prof.Critical.CPULowThrottle = cpu.MinActivePower(1)
	prof.Critical.CPULowPState = cpu.Power(cpu.FMin, 1, 1)
	prof.Critical.CPUMax = cpu.MaxPower(1)
	prof.Critical.MemFloor = dram.BackgroundPower
	prof.Critical.MemAtCPULow = dram.BackgroundPower + dram.MinThrottleHeadroom
	prof.Critical.MemMax = dram.MaxPower(0)
	return prof
}

// PlanCPUDegraded builds a dynamic plan when some (or all) phase
// profiles are missing or unreliable, instead of erroring: phases with a
// good profile get phase-aware COORD as usual; damaged phases fall back
// to the memory-first baseline — the conservative policy of the paper's
// reference [19], which over-provisions memory but avoids the
// catastrophic memory-under-budget cliff — computed over the
// whole-workload profile when it is trusted, or over a hardware-derived
// conservative profile when it is not. static may be nil when no
// whole-workload profile is available.
func PlanCPUDegraded(p hw.Platform, w workload.Workload, budget units.Power, phases []PhaseProfile, static *profile.CPUProfile) (Plan, error) {
	if p.Kind != hw.KindCPU {
		return Plan{}, fmt.Errorf("dyncoord: platform %q is not a CPU platform", p.Name)
	}
	if len(phases) != len(w.Phases) {
		return Plan{}, fmt.Errorf("dyncoord: %d phase profiles for %d phases", len(phases), len(w.Phases))
	}
	var fallbackProf profile.CPUProfile
	if static != nil {
		fallbackProf = *static
	} else {
		fallbackProf = conservativeProfile(p)
	}
	fallback := coord.MemoryFirst(fallbackProf, budget)

	mPlans.Inc()
	plan := Plan{Workload: w.Name, Budget: budget, Steps: make([]Step, 0, len(w.Phases))}
	for i, ph := range w.Phases {
		mSteps.Inc()
		step := Step{Phase: ph.Name, Weight: ph.Weight}
		if phases[i].Health == ProfileGood {
			d := coord.CPU(phases[i].Prof, budget)
			if d.Status != coord.StatusTooSmall {
				step.Alloc, step.Status = d.Alloc, d.Status
				plan.Steps = append(plan.Steps, step)
				continue
			}
		}
		step.FellBack = true
		mDegradeFallback.Inc()
		step.Alloc, step.Status = fallback.Alloc, fallback.Status
		plan.Steps = append(plan.Steps, step)
	}
	return plan, nil
}

// PlanCPUOrDegrade is the resilient entry point: it profiles each phase
// individually, marks phases whose profiling failed as missing rather
// than aborting the plan, and degrades those to the memory-first
// fallback. Only platform-level misuse still errors.
func PlanCPUOrDegrade(p hw.Platform, w workload.Workload, budget units.Power) (Plan, error) {
	if p.Kind != hw.KindCPU {
		return Plan{}, fmt.Errorf("dyncoord: platform %q is not a CPU platform", p.Name)
	}
	phases, static := Profiles(p, w)
	return PlanCPUDegraded(p, w, budget, phases, static)
}

// Profiles takes the profiles PlanCPUOrDegrade plans from, for a CPU
// platform: every phase's own profile, a phase whose profiling failed
// marked missing, and the whole-workload profile, nil when its
// profiling failed. A caller planning one pair at many budgets profiles
// once and passes the result to PlanCPUDegraded at each.
func Profiles(p hw.Platform, w workload.Workload) (phases []PhaseProfile, static *profile.CPUProfile) {
	phases = make([]PhaseProfile, len(w.Phases))
	for i := range w.Phases {
		pw := phaseWorkload(&w, i)
		prof, err := profile.ProfileCPU(p, pw)
		if err != nil {
			phases[i] = PhaseProfile{Health: ProfileMissing}
			continue
		}
		phases[i] = PhaseProfile{Prof: prof, Health: ProfileGood}
	}
	if prof, err := profile.ProfileCPU(p, w); err == nil {
		static = &prof
	}
	return phases, static
}

// Fallbacks counts the steps that could not use phase-aware COORD.
func (pl *Plan) Fallbacks() int {
	n := 0
	for _, s := range pl.Steps {
		if s.FellBack {
			n++
		}
	}
	return n
}

// Rejected reports whether any step has no usable allocation (the budget
// is below both the phase and whole-workload thresholds).
func (pl *Plan) Rejected() bool {
	for _, s := range pl.Steps {
		if s.Status == coord.StatusTooSmall {
			return true
		}
	}
	return false
}

// MaxAllocated returns the largest total allocation across steps — the
// node power bound the plan actually needs.
func (pl *Plan) MaxAllocated() units.Power {
	var m units.Power
	for _, s := range pl.Steps {
		if t := s.Alloc.Total(); t > m {
			m = t
		}
	}
	return m
}

// Execution is the outcome of running a plan.
type Execution struct {
	// Perf is the aggregate performance in the workload's unit.
	Perf float64
	// AvgProcPower and AvgMemPower are time-weighted actual draws.
	AvgProcPower, AvgMemPower units.Power
	// PeakTotalPower is the highest per-phase actual draw — the value a
	// node power bound must cover.
	PeakTotalPower units.Power
	// PhasePerfs records each phase's own rate (work units/s).
	PhasePerfs []float64
}

// Execute runs each phase under its step's allocation and aggregates
// exactly like a sequential execution: total time is the weighted sum of
// per-phase times, powers are time-weighted.
func (pl *Plan) Execute(p hw.Platform, w workload.Workload) (Execution, error) {
	if len(pl.Steps) != len(w.Phases) {
		return Execution{}, fmt.Errorf("dyncoord: plan has %d steps for %d phases",
			len(pl.Steps), len(w.Phases))
	}
	var ex Execution
	totalTime := 0.0
	type phaseRun struct {
		time      float64
		proc, mem units.Power
	}
	var runs []phaseRun
	for i := range w.Phases {
		pw := phaseWorkload(&w, i)
		res, err := sim.RunCPU(p, &pw, pl.Steps[i].Alloc.Proc, pl.Steps[i].Alloc.Mem)
		if err != nil {
			return Execution{}, err
		}
		rate := res.UnitRate.OpsPerSecond()
		if rate <= 0 {
			return Execution{}, fmt.Errorf("dyncoord: phase %q made no progress", w.Phases[i].Name)
		}
		ex.PhasePerfs = append(ex.PhasePerfs, rate)
		t := pl.Steps[i].Weight / rate
		totalTime += t
		runs = append(runs, phaseRun{time: t, proc: res.ProcPower, mem: res.MemPower})
		if tp := res.ProcPower + res.MemPower; tp > ex.PeakTotalPower {
			ex.PeakTotalPower = tp
		}
	}
	if totalTime <= 0 {
		return Execution{}, fmt.Errorf("dyncoord: zero total time")
	}
	ex.Perf = w.PerfPerUnitRate / totalTime
	for _, r := range runs {
		share := r.time / totalTime
		ex.AvgProcPower += units.Power(share * r.proc.Watts())
		ex.AvgMemPower += units.Power(share * r.mem.Watts())
	}
	return ex, nil
}

// Comparison contrasts dynamic per-phase coordination against the static
// whole-run COORD allocation for one workload and budget.
type Comparison struct {
	Workload string
	Budget   units.Power
	// StaticPerf and DynamicPerf are the aggregate performances; either
	// is zero when the corresponding policy rejected the budget.
	StaticPerf, DynamicPerf float64
	// Gain is DynamicPerf/StaticPerf - 1.
	Gain float64
}

// Compare evaluates both policies under the same budget.
func Compare(p hw.Platform, w workload.Workload, budget units.Power) (Comparison, error) {
	cmp := Comparison{Workload: w.Name, Budget: budget}

	prof, err := profile.ProfileCPU(p, w)
	if err != nil {
		return cmp, err
	}
	if d := coord.CPU(prof, budget); d.Status != coord.StatusTooSmall {
		res, err := sim.RunCPU(p, &w, d.Alloc.Proc, d.Alloc.Mem)
		if err != nil {
			return cmp, err
		}
		cmp.StaticPerf = res.Perf
	}

	plan, err := PlanCPU(p, w, budget)
	if err != nil {
		return cmp, err
	}
	if !plan.Rejected() {
		ex, err := plan.Execute(p, w)
		if err != nil {
			return cmp, err
		}
		cmp.DynamicPerf = ex.Perf
	}
	if cmp.StaticPerf > 0 && cmp.DynamicPerf > 0 {
		cmp.Gain = cmp.DynamicPerf/cmp.StaticPerf - 1
	}
	return cmp, nil
}
