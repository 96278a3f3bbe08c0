// Package profile implements the lightweight application profiling COORD
// depends on (paper Section 5): a handful of capped runs that extract the
// seven critical power values on CPU platforms (P_cpu_L1..L4 and
// P_mem_L1..L3) and the two per-application parameters on GPUs
// (P_tot_max and P_tot_ref), plus the card constants P_mem_min/max.
//
// This replaces the exhaustive or fine-grained sweeps of prior work: a
// profile costs O(log) capped runs (two anchor runs plus two binary
// searches on actuator-state boundaries) rather than a full
// allocation-space sweep.
package profile

import (
	"fmt"

	"repro/internal/category"
	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// CPUProfile is the per-application profile COORD's Algorithm 1 consumes.
type CPUProfile struct {
	// Platform and Workload name the profiled pair.
	Platform, Workload string
	// Critical holds the seven critical power values.
	Critical category.CriticalPowers
	// UncappedPerf is the performance with no caps (the budget-surplus
	// reference).
	UncappedPerf float64
	// Runs counts the simulated executions the profile cost.
	Runs int
}

// searchTolerance is the binary-search resolution in watts for locating
// actuator-state boundaries.
const searchTolerance = 0.5

// demandMargin inflates the measured maximum demands by a small
// robustness margin. The paper's Section 6.2 observes that "an ideal
// power budget would be slightly above the upper bound to ensure a robust
// power coordination": capping a domain at exactly its measured demand
// risks losing a P-state to actuator hysteresis.
const demandMargin = 1.02

// ProfileCPU extracts a CPU profile for workload w on platform p.
//
// The measurement plan mirrors what the paper's offline profiling does on
// real RAPL hardware:
//  1. one uncapped run anchors P_cpu_L1 and P_mem_L1 (maximum demands);
//  2. a binary search for the lowest package cap that avoids T-states
//     anchors P_cpu_L2 (lowest P-state power);
//  3. one run capped just below L2 lands in the lowest percentage of
//     clock throttling, anchoring P_cpu_L3 (onset of T-states) and, from
//     the same run, P_mem_L2 (the DRAM power the workload still draws
//     with the processor at L3);
//  4. P_cpu_L4 and P_mem_L3 are the hardware floors, workload
//     independent.
func ProfileCPU(p hw.Platform, w workload.Workload) (CPUProfile, error) {
	return ProfileCPUWithMargin(p, w, demandMargin)
}

// ProfileCPUWithMargin is ProfileCPU with an explicit demand margin
// (1.0 disables the robustness inflation; used by the ablation study).
func ProfileCPUWithMargin(p hw.Platform, w workload.Workload, margin float64) (CPUProfile, error) {
	if p.Kind != hw.KindCPU {
		return CPUProfile{}, fmt.Errorf("profile: platform %q is not a CPU platform", p.Name)
	}
	if margin < 1 {
		return CPUProfile{}, fmt.Errorf("profile: demand margin %v below 1", margin)
	}
	// The profile is a pure function of the problem's content and the
	// margin, so the shared evaluation engine memoizes it whole: every
	// figure, request and scheduling round that profiles the same pair
	// gets the stored profile instead of re-running the binary search.
	// A profile that misses the memo runs its ten or so searches on a
	// bound simulator: they revisit about half of their actuator states.
	bound := evalpool.Default().Bind(evalpool.Problem{Platform: p, Workload: w})
	return evalpool.Derive(bound, "profile.cpu", margin, func() (CPUProfile, error) {
		return runCPUPlan(p, w, margin, bound.WithModel())
	})
}

// runCPUPlan runs the CPU profiling plan against the bound problem.
func runCPUPlan(p hw.Platform, w workload.Workload, margin float64, bound *evalpool.Bound) (CPUProfile, error) {
	prof := CPUProfile{Platform: p.Name, Workload: w.Name}
	run := func(procCap, memCap units.Power) (sim.Result, error) {
		prof.Runs++
		return bound.Evaluate(evalpool.Request{Op: evalpool.OpCPU, Proc: procCap, Mem: memCap})
	}

	// 1. Maximum demands. The demand that matters for capping is the
	// *peak* across execution phases, not the time-weighted average: a
	// cap at the average throttles the hungriest phase of a multi-phase
	// application.
	uncapped, err := run(0, 0)
	if err != nil {
		return CPUProfile{}, err
	}
	prof.UncappedPerf = uncapped.Perf
	peakProc, peakMem := uncapped.ProcPower, uncapped.MemPower
	for _, ph := range uncapped.Phases {
		if ph.ProcPower > peakProc {
			peakProc = ph.ProcPower
		}
		if ph.MemPower > peakMem {
			peakMem = ph.MemPower
		}
	}
	prof.Critical.CPUMax = units.Power(peakProc.Watts() * margin)
	prof.Critical.MemMax = units.Power(peakMem.Watts() * margin)

	// 2. Lowest P-state power: the smallest cap that does not throttle.
	floor := p.CPU.IdlePower
	lo, hi := floor, prof.Critical.CPUMax
	var lowPState sim.Result
	found := false
	for hi-lo > searchTolerance {
		mid := (lo + hi) / 2
		res, err := run(mid, 0)
		if err != nil {
			return CPUProfile{}, err
		}
		if res.Throttled {
			lo = mid
		} else {
			hi = mid
			lowPState = res
			found = true
		}
	}
	if !found {
		// Even the maximum demand throttles (cannot happen with a
		// consistent spec, but fail loudly rather than fabricate).
		return CPUProfile{}, fmt.Errorf("profile: no unthrottled package state found for %s", w.Name)
	}
	prof.Critical.CPULowPState = lowPState.ProcPower

	// 3. Onset of clock throttling: cap just below the lowest P-state
	// power lands the actuator in the lowest percentage of throttling.
	onset, err := run(prof.Critical.CPULowPState-1, 0)
	if err != nil {
		return CPUProfile{}, err
	}
	if !onset.Throttled {
		return CPUProfile{}, fmt.Errorf("profile: throttle onset not reached for %s", w.Name)
	}
	prof.Critical.CPULowThrottle = onset.ProcPower
	prof.Critical.MemAtCPULow = onset.MemPower

	// 4. Hardware floors (workload independent).
	prof.Critical.CPUFloor = p.CPU.IdlePower
	prof.Critical.MemFloor = p.DRAM.BackgroundPower

	// Guard against measurement inversions before handing the profile to
	// the classifier.
	clampOrdering(&prof.Critical)
	if err := prof.Critical.Validate(); err != nil {
		return CPUProfile{}, err
	}
	return prof, nil
}

// clampOrdering repairs sub-watt inversions that binary-search tolerance
// can introduce between adjacent critical values.
func clampOrdering(cp *category.CriticalPowers) {
	if cp.CPULowThrottle < cp.CPUFloor {
		cp.CPULowThrottle = cp.CPUFloor
	}
	if cp.CPULowPState < cp.CPULowThrottle {
		cp.CPULowPState = cp.CPULowThrottle
	}
	if cp.CPUMax < cp.CPULowPState {
		cp.CPUMax = cp.CPULowPState
	}
	if cp.MemAtCPULow < cp.MemFloor {
		cp.MemAtCPULow = cp.MemFloor
	}
	if cp.MemMax < cp.MemAtCPULow {
		cp.MemMax = cp.MemAtCPULow
	}
}

// GPUProfile is the per-application profile COORD's Algorithm 2 consumes
// (Section 5.2): two application parameters plus two card constants.
type GPUProfile struct {
	// Platform and Workload name the profiled pair.
	Platform, Workload string
	// TotMax (P_tot_max) is the board power with no cap imposed (run at
	// the maximum settable cap). A value close to the hardware maximum
	// marks the application compute intensive.
	TotMax units.Power
	// TotRef (P_tot_ref) is the board power with memory at the nominal
	// clock and the SMs at their minimum pairing clock.
	TotRef units.Power
	// MemMin and MemMax are the card's memory power range (constants for
	// all applications); MemNom is the memory power at the nominal clock
	// the default driver policy always selects.
	MemMin, MemMax, MemNom units.Power
	// ComputeIntensive reports whether TotMax approaches the hardware
	// maximum.
	ComputeIntensive bool
	// UncappedPerf is the performance at the maximum settable cap.
	UncappedPerf float64
	// Runs counts the simulated executions the profile cost.
	Runs int
}

// computeIntensiveFrac is the fraction of the hardware maximum cap above
// which TotMax marks an application compute intensive (paper: "a value
// close to hardware maximum (300 Watts on the Titan XP GPU)").
const computeIntensiveFrac = 0.95

// ProfileGPU extracts a GPU profile for workload w on card platform p
// with two runs: one uncapped (maximum settable cap, nominal clocks) and
// one with the SM clock pinned at its minimum while memory stays nominal.
func ProfileGPU(p hw.Platform, w workload.Workload) (GPUProfile, error) {
	return ProfileGPUOn(evalpool.Default(), p, w)
}

// ProfileGPUOn is ProfileGPU on engine e: its runs and its memo entry
// belong to e, so a Serial engine profiles afresh on every call.
func ProfileGPUOn(e *evalpool.Engine, p hw.Platform, w workload.Workload) (GPUProfile, error) {
	if p.Kind != hw.KindGPU {
		return GPUProfile{}, fmt.Errorf("profile: platform %q is not a GPU platform", p.Name)
	}
	// Memoized whole on the engine, like ProfileCPU.
	bound := e.Bind(evalpool.Problem{Platform: p, Workload: w})
	return evalpool.Derive(bound, "profile.gpu", 0, func() (GPUProfile, error) {
		return runGPUPlan(p, w, bound)
	})
}

// runGPUPlan runs the two GPU profiling runs against the bound problem.
func runGPUPlan(p hw.Platform, w workload.Workload, bound *evalpool.Bound) (GPUProfile, error) {
	gpu := p.GPU
	prof := GPUProfile{
		Platform: p.Name, Workload: w.Name,
		MemMin: gpu.Mem.PowerMin, MemMax: gpu.Mem.PowerMax,
		MemNom: gpu.Mem.Power(gpu.Mem.ClockNom),
	}

	uncapped, err := bound.Evaluate(evalpool.Request{
		Op: evalpool.OpGPUClock, Proc: gpu.MaxCap, Clock: gpu.Mem.ClockNom})
	if err != nil {
		return GPUProfile{}, err
	}
	prof.Runs++
	prof.TotMax = uncapped.TotalPower
	prof.UncappedPerf = uncapped.Perf

	// SM at the minimum pairing clock, memory nominal.
	minSM := gpu.SMClockMin - gpu.SMClockNom // offset to the bottom of the table
	ref, err := bound.Evaluate(evalpool.Request{
		Op: evalpool.OpGPUOffsets, Proc: gpu.MaxCap, SMOffset: minSM})
	if err != nil {
		return GPUProfile{}, err
	}
	prof.Runs++
	prof.TotRef = ref.TotalPower

	prof.ComputeIntensive = prof.TotMax.Watts() >= computeIntensiveFrac*gpu.MaxCap.Watts()
	return prof, nil
}
