// Package sim implements the node-level simulator: it couples the power
// actuators (RAPL on CPU nodes, the board governor on GPUs) with the
// roofline performance model and iterates to a fixed point.
//
// The coupling is the essential physics behind the paper's allocation
// scenarios. Performance depends on the frequency/duty state the actuator
// picks; the actuator's pick depends on package power; package power
// depends on the activity factor; and activity depends on how much of the
// time the processor is stalled on memory — which is set by performance.
// Iterating this loop reproduces, by construction, the scenario behaviours
// the paper observes: a memory-starved CPU draws less than its cap
// (scenario III), and a duty-cycled CPU issues fewer memory requests so
// DRAM draws far less than its allocation (scenario IV).
package sim

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/hw"
	"repro/internal/nvgov"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/units"
	"repro/internal/workload"
)

// Fixed-point iteration parameters. The damped activity update converges
// geometrically; the iteration count is a safety bound.
const (
	maxIterations = 80
	damping       = 0.5
	convergeEps   = 1e-4
)

// mlpFloor is the fraction of pattern bandwidth the memory system
// sustains even at the lowest core frequency (prefetch and MLP keep most
// requests in flight); the remainder scales with frequency.
const mlpFloor = 0.7

// PhaseResult is the solved steady state of one workload phase.
type PhaseResult struct {
	// Phase names the workload phase.
	Phase string
	// Weight is the phase's share of total work.
	Weight float64
	// Rate is the phase's work-unit completion rate.
	Rate units.Rate
	// ProcPower and MemPower are the actual component draws during the
	// phase.
	ProcPower, MemPower units.Power
	// Freq and Duty are the processor state the actuator settled on
	// (for GPUs, Freq is the SM clock and Duty is always 1).
	Freq units.Frequency
	Duty float64
	// MemBandwidth is the achieved memory traffic.
	MemBandwidth units.Bandwidth
	// ComputeUtil and MemUtil are capacity utilizations (Figure 5).
	ComputeUtil, MemUtil float64
	// StallFrac is the fraction of time stalled on memory.
	StallFrac float64
	// Throttled and AtFloor report T-state engagement and cap violation.
	Throttled, AtFloor bool
	// Activity is the converged processor activity factor.
	Activity float64
}

// Result is the solved steady state of a whole workload run under a given
// allocation.
type Result struct {
	// Perf is performance in the workload's reported unit (e.g. GB/s for
	// STREAM, GFLOP/s for DGEMM).
	Perf float64
	// UnitRate is the aggregate work-unit rate across phases (harmonic
	// combination weighted by work share).
	UnitRate units.Rate
	// ProcPower, MemPower and TotalPower are time-weighted actual draws.
	ProcPower, MemPower, TotalPower units.Power
	// ComputeUtil, MemUtil and StallFrac are time-weighted averages.
	ComputeUtil, MemUtil, StallFrac float64
	// Throttled reports whether any phase engaged T-states; AtFloor
	// whether any phase ran at the floor with its cap not respected.
	Throttled, AtFloor bool
	// Phases holds the per-phase detail.
	Phases []PhaseResult
}

// Options are model switches used by the ablation studies; the zero value
// is the full model.
type Options struct {
	// DisableDutyGating removes the coupling between the T-state duty
	// cycle and the achievable memory bandwidth. With it set, a
	// throttled CPU keeps DRAM traffic flowing — scenario IV's
	// "memory under-consumes its allocation" behaviour disappears.
	DisableDutyGating bool
	// ForceOverlap overrides every phase's overlap exponent when > 0
	// (e.g. 64 turns the model into a pure roofline: T = max(Tc, Tm)).
	ForceOverlap float64
}

// RunCPU simulates workload w on a CPU platform with the package capped
// at procCap and DRAM capped at memCap (zero or negative disables a cap).
func RunCPU(p hw.Platform, w *workload.Workload, procCap, memCap units.Power) (Result, error) {
	return RunCPUOpts(p, w, procCap, memCap, Options{})
}

// RunCPUOpts is RunCPU with explicit model options.
func RunCPUOpts(p hw.Platform, w *workload.Workload, procCap, memCap units.Power, opts Options) (Result, error) {
	if err := check(p, w, hw.KindCPU); err != nil {
		return Result{}, err
	}
	return cpuRun(p, w, procCap, memCap, opts, nil)
}

// check validates a run's platform and workload: the platform must be
// of kind, both must be internally consistent, and the workload must
// be of the platform's kind.
func check(p hw.Platform, w *workload.Workload, kind hw.Kind) error {
	if p.Kind != kind {
		return fmt.Errorf("sim: platform %q is not a %s platform", p.Name, strings.ToUpper(kind.String()))
	}
	if err := p.Validate(); err != nil {
		return err
	}
	if err := w.Validate(); err != nil {
		return err
	}
	if w.Kind != kind {
		return fmt.Errorf("sim: workload %q is not a %s workload", w.Name, strings.ToUpper(kind.String()))
	}
	return nil
}

// cpuRun is RunCPUOpts after validation, reading m's tables when m is
// not nil.
func cpuRun(p hw.Platform, w *workload.Workload, procCap, memCap units.Power, opts Options, m *Model) (Result, error) {
	ctrl := rapl.NewController(p.CPU, p.DRAM)
	if err := ctrl.SetLimit(rapl.DomainPackage, procCap); err != nil {
		return Result{}, err
	}
	if err := ctrl.SetLimit(rapl.DomainDRAM, memCap); err != nil {
		return Result{}, err
	}

	phases := make([]PhaseResult, 0, len(w.Phases))
	for i := range w.Phases {
		ph := w.Phases[i]
		if opts.ForceOverlap > 0 {
			ph.Overlap = opts.ForceOverlap
		}
		phases = append(phases, solveCPUPhase(ctrl, p, &ph, opts, m.row(i)))
	}
	return aggregate(w, phases), nil
}

// solveCPUPhase iterates the activity/actuator/performance loop for one
// phase until the activity factor stops moving. row holds the phase's
// pattern points by package state when the run is bound (nil solves
// them).
func solveCPUPhase(ctrl *rapl.Controller, p hw.Platform, ph *workload.Phase, opts Options, row pointRow) PhaseResult {
	act := ph.Activity(0.5)
	// An operating point is the pattern point of the package state
	// (solveCPUPattern), throttled at the DRAM ceiling. The ceiling and
	// the package limit are loop-invariant: no register is written while
	// a run solves its phases, so both are read once per phase.
	ceiling := ctrl.DRAMBandwidthCeiling(ph.RandomFrac)
	limit, limited := ctrl.Limit(rapl.DomainPackage)
	// state and op are the last package state and its operating point.
	// A pass whose actuator returns an equal state reuses op instead of
	// solving it again.
	var state rapl.PackageState
	var op perfmodel.OperatingPoint
	for i := 0; i < maxIterations; i++ {
		if s, bin := ctrl.ActuateBin(limit, limited, act); i == 0 || s != state {
			state, op = s, perfmodel.Throttle(ph, row.cpuPattern(bin, p, ph, s, opts), ceiling)
		}
		next := ph.Activity(op.StallFrac)
		if math.Abs(next-act) < convergeEps {
			act = next
			break
		}
		act += damping * (next - act)
	}
	// Final consistent pass with the converged activity.
	if s, bin := ctrl.ActuateBin(limit, limited, act); s != state {
		state, op = s, perfmodel.Throttle(ph, row.cpuPattern(bin, p, ph, s, opts), ceiling)
	}
	act = ph.Activity(op.StallFrac)

	return PhaseResult{
		Phase:        ph.Name,
		Weight:       ph.Weight,
		Rate:         op.Rate,
		ProcPower:    ctrl.PackagePower(state, act),
		MemPower:     ctrl.DRAMPower(op.BandwidthUsed, ph.RandomFrac),
		Freq:         state.Freq,
		Duty:         state.Duty,
		MemBandwidth: op.BandwidthUsed,
		ComputeUtil:  op.ComputeUtil,
		MemUtil:      op.MemUtil,
		StallFrac:    op.StallFrac,
		Throttled:    state.Throttled,
		AtFloor:      state.AtFloor,
		Activity:     act,
	}
}

// solveCPUPattern computes the operating point for a given package
// state before DRAM throttling: the compute capacity follows the P/T
// state, and the memory capacity is the pattern limit.
//
// It reads nothing but the phase, the platform, opts and the state's
// frequency and duty, so within one bound model it is a pure function
// of the state's ActuateBin index: the model's row tables it by index.
func solveCPUPattern(p hw.Platform, ph *workload.Phase, state rapl.PackageState, opts Options) perfmodel.OperatingPoint {
	computeCap := units.Rate(p.CPU.PeakComputeRate(state.Freq, state.Duty).OpsPerSecond() * ph.ComputeEff)
	// Memory requests are issued by instructions: clock throttling gates
	// the cores' ability to keep requests outstanding, so the achievable
	// bandwidth scales with the duty cycle (this is why DRAM draws far
	// less than its allocation in the paper's scenario IV — "CPUs make
	// less frequent memory request"). DVFS affects it only weakly —
	// prefetchers and memory-level parallelism sustain most of the
	// bandwidth across the P-state range — which is why performance
	// declines gradually, not proportionally, through scenario II.
	fRatio := state.Freq.Hz() / p.CPU.FNom.Hz()
	issue := state.Duty * (mlpFloor + (1-mlpFloor)*fRatio)
	if opts.DisableDutyGating {
		issue = 1
	}
	patternBW := units.Bandwidth(p.DRAM.PeakBandwidth().BytesPerSecond() * ph.BandwidthEff * issue)
	return perfmodel.Solve(ph, computeCap, patternBW)
}

// RunGPU simulates workload w on a GPU platform with the board capped at
// totalCap and the memory clock pinned at memClock (the nvidia-settings
// knob). Pass the card's nominal memory clock for the default driver
// policy.
func RunGPU(p hw.Platform, w *workload.Workload, totalCap units.Power, memClock units.Frequency) (Result, error) {
	if err := check(p, w, hw.KindGPU); err != nil {
		return Result{}, err
	}
	return gpuRun(p, w, totalCap, gpuClocks{mem: memClock}, nil)
}

// RunGPUOffsets simulates workload w with explicit nvidia-settings clock
// offsets on both domains, the raw control surface the paper's GPU
// experiments sweep. smOffset and memOffset shift the SM boost limit and
// memory clock relative to nominal.
func RunGPUOffsets(p hw.Platform, w *workload.Workload, totalCap units.Power, smOffset, memOffset units.Frequency) (Result, error) {
	if err := check(p, w, hw.KindGPU); err != nil {
		return Result{}, err
	}
	return gpuRun(p, w, totalCap, gpuClocks{offsets: true, sm: smOffset, mem: memOffset}, nil)
}

// RunGPUMemPower is RunGPU with the allocation expressed as a memory
// power budget: the memory clock is set to the highest value whose
// estimated power fits the budget, mirroring how COORD programs the card.
func RunGPUMemPower(p hw.Platform, w *workload.Workload, totalCap, memBudget units.Power) (Result, error) {
	if p.Kind != hw.KindGPU {
		return Result{}, fmt.Errorf("sim: platform %q is not a GPU platform", p.Name)
	}
	clock := p.GPU.Mem.ClockForPower(memBudget)
	return RunGPU(p, w, totalCap, clock)
}

// gpuClocks is a GPU run's clock programming: the memory clock RunGPU
// pins (mem), or RunGPUOffsets' SM and memory offsets (sm, mem).
type gpuClocks struct {
	offsets bool
	sm, mem units.Frequency
}

// program sets the clocks on gov, as the entry point always has.
func (c gpuClocks) program(gov *nvgov.Governor) {
	if c.offsets {
		gov.SetSMOffset(c.sm)
		gov.SetMemOffset(c.mem)
		return
	}
	gov.SetMemClock(c.mem)
}

// gpuRun is the GPU entry points after validation, reading m's tables
// when m is not nil.
func gpuRun(p hw.Platform, w *workload.Workload, totalCap units.Power, clocks gpuClocks, m *Model) (Result, error) {
	gov := nvgov.New(p.GPU)
	if err := gov.SetPowerCap(totalCap); err != nil {
		return Result{}, err
	}
	clocks.program(gov)

	mem := m.memIndex(gov.MemClock())
	phases := make([]PhaseResult, 0, len(w.Phases))
	for i := range w.Phases {
		phases = append(phases, solveGPUPhase(gov, p, &w.Phases[i], m.gpuRow(i, mem)))
	}
	return aggregate(w, phases), nil
}

// solveGPUPhase is solveCPUPhase for a GPU phase; row holds its
// operating points by SM bin at the run's memory clock when the run is
// bound (nil solves them).
func solveGPUPhase(gov *nvgov.Governor, p hw.Platform, ph *workload.Phase, row pointRow) PhaseResult {
	act := ph.Activity(0.5)
	// As in solveCPUPhase, an equal board state reuses the last op:
	// solveGPUPoint reads nothing but the loop-invariant platform and
	// phase besides the state.
	var state nvgov.State
	var op perfmodel.OperatingPoint
	for i := 0; i < maxIterations; i++ {
		if s, bin := gov.ActuateBin(act); i == 0 || s != state {
			state, op = s, row.gpuPoint(bin, p, ph, s)
		}
		next := ph.Activity(op.StallFrac)
		if math.Abs(next-act) < convergeEps {
			act = next
			break
		}
		act += damping * (next - act)
	}
	if s, bin := gov.ActuateBin(act); s != state {
		state, op = s, row.gpuPoint(bin, p, ph, s)
	}
	act = ph.Activity(op.StallFrac)

	memPower := p.GPU.Mem.Power(state.MemClock)
	return PhaseResult{
		Phase:        ph.Name,
		Weight:       ph.Weight,
		Rate:         op.Rate,
		ProcPower:    p.GPU.IdleBoard + p.GPU.SMPower(state.SMClock, act),
		MemPower:     memPower,
		Freq:         state.SMClock,
		Duty:         1,
		MemBandwidth: op.BandwidthUsed,
		ComputeUtil:  op.ComputeUtil,
		MemUtil:      op.MemUtil,
		StallFrac:    op.StallFrac,
		Throttled:    state.PowerLimited,
		AtFloor:      state.AtFloor,
		Activity:     act,
	}
}

// gpuMLPFloor is the fraction of pattern bandwidth the memory system
// sustains with the SMs at their minimum clock: memory requests are
// issued by warps, so a deeply down-clocked SM array cannot keep the full
// request stream in flight. This is what bends memory-intensive
// applications into the paper's category II at small board caps — pushing
// power to memory starves the SMs that feed it.
const gpuMLPFloor = 0.5

// solveGPUPoint computes the operating point for a given board state.
// It reads nothing but the platform, the phase and the state's two
// clocks, so within one bound model it is a pure function of the SM bin
// at a given memory clock: the model's rows table it by both.
func solveGPUPoint(p hw.Platform, ph *workload.Phase, state nvgov.State) perfmodel.OperatingPoint {
	computeCap := units.Rate(p.GPU.PeakComputeRate(state.SMClock).OpsPerSecond() * ph.ComputeEff)
	smRatio := state.SMClock.Hz() / p.GPU.SMClockNom.Hz()
	issue := gpuMLPFloor + (1-gpuMLPFloor)*smRatio
	memCap := units.Bandwidth(p.GPU.Mem.PeakBandwidth(state.MemClock).BytesPerSecond() * ph.BandwidthEff * issue)
	return perfmodel.Solve(ph, computeCap, memCap)
}

// aggregate combines per-phase results into a workload result. Phases run
// sequentially; with weight w_i of the total work at rate R_i, the
// aggregate rate is the weighted harmonic mean and powers are
// time-weighted.
func aggregate(w *workload.Workload, phases []PhaseResult) Result {
	var res Result
	res.Phases = phases
	totalTime := 0.0
	for _, pr := range phases {
		if pr.Rate <= 0 {
			totalTime = math.Inf(1)
			break
		}
		totalTime += pr.Weight / pr.Rate.OpsPerSecond()
	}
	if totalTime <= 0 || math.IsInf(totalTime, 0) {
		return res
	}
	res.UnitRate = units.Rate(1 / totalTime)
	res.Perf = res.UnitRate.OpsPerSecond() * w.PerfPerUnitRate
	for _, pr := range phases {
		share := (pr.Weight / pr.Rate.OpsPerSecond()) / totalTime
		res.ProcPower += units.Power(share * pr.ProcPower.Watts())
		res.MemPower += units.Power(share * pr.MemPower.Watts())
		res.ComputeUtil += share * pr.ComputeUtil
		res.MemUtil += share * pr.MemUtil
		res.StallFrac += share * pr.StallFrac
		res.Throttled = res.Throttled || pr.Throttled
		res.AtFloor = res.AtFloor || pr.AtFloor
	}
	res.TotalPower = res.ProcPower + res.MemPower
	return res
}
