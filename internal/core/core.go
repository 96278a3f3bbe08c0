// Package core formalizes the paper's power-bounded computing problem at
// the node level (Section 2.2): given a workload W, a machine M with
// power-boundable components, and a total power bound P_b, find the upper
// bound of achievable performance perf_max and the allocation tuple
// alpha* = (P_proc*, P_mem*) that attains it subject to
// P_proc + P_mem <= P_b.
//
// The package provides the allocation space enumeration, the exhaustive
// (oracle) solver used as the "best found in the experimental dataset"
// baseline of Section 6.3, and perf_max-versus-budget curves (Figures 1,
// 2, and 6).
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Allocation is a cross-component power allocation tuple alpha =
// (P_proc, P_mem). On CPU platforms both members are independently
// enforced RAPL caps. On GPU platforms Mem is the estimated memory power
// selected through the memory clock and Proc is the remainder of the
// board budget (the governor enforces only the total).
type Allocation struct {
	Proc units.Power
	Mem  units.Power
}

// Total returns P_proc + P_mem.
func (a Allocation) Total() units.Power { return a.Proc + a.Mem }

// String formats the allocation as "(cpu 120.0 W, mem 88.0 W)".
func (a Allocation) String() string {
	return fmt.Sprintf("(proc %s, mem %s)", a.Proc, a.Mem)
}

// Evaluation pairs an allocation with its simulated outcome.
type Evaluation struct {
	Alloc  Allocation
	Result sim.Result
}

// PerfPerWatt returns the power efficiency of the evaluation: performance
// per actually consumed watt. Zero-power results return zero.
func (e Evaluation) PerfPerWatt() float64 {
	w := e.Result.TotalPower.Watts()
	if w <= 0 {
		return 0
	}
	return e.Result.Perf / w
}

// Problem is one instance of the power-bounded computing problem.
type Problem struct {
	// Platform is the machine M.
	Platform hw.Platform
	// Workload is the parallel workload W.
	Workload workload.Workload
	// Budget is the total power bound P_b.
	Budget units.Power
	// Step is the sweep granularity for CPU platforms (default 4 W, the
	// stepping the paper's sweeps use). GPU platforms enumerate memory
	// clocks instead.
	Step units.Power
	// ProcMin and MemMin bound the sweep from below. The defaults extend
	// slightly below the hardware floors so the sweep exposes the
	// cap-not-respected scenarios V and VI, as the paper's Figure 3 does.
	ProcMin, MemMin units.Power
	// Engine evaluates the problem's simulator calls. Nil selects the
	// process-wide shared engine (evalpool.Default).
	Engine *evalpool.Engine
}

// Default sweep bounds for CPU platforms, chosen to match the span of the
// paper's Figure 3 (P_cpu from 40 W, P_mem from under the DRAM floor).
const (
	DefaultStep    units.Power = 4
	DefaultProcMin units.Power = 40
	DefaultMemMin  units.Power = 40
)

// NewProblem returns a problem with default sweep parameters.
func NewProblem(p hw.Platform, w workload.Workload, budget units.Power) Problem {
	return Problem{
		Platform: p, Workload: w, Budget: budget,
		Step: DefaultStep, ProcMin: DefaultProcMin, MemMin: DefaultMemMin,
	}
}

// normalize fills zero fields with defaults.
func (pb *Problem) normalize() {
	if pb.Step <= 0 {
		pb.Step = DefaultStep
	}
	if pb.ProcMin <= 0 {
		pb.ProcMin = DefaultProcMin
	}
	if pb.MemMin <= 0 {
		pb.MemMin = DefaultMemMin
	}
}

// engine returns the problem's engine, defaulting to the shared one.
func (pb *Problem) engine() *evalpool.Engine {
	if pb.Engine != nil {
		return pb.Engine
	}
	return evalpool.Default()
}

// request translates an allocation into the simulator call for the
// problem's platform kind.
func (pb *Problem) request(a Allocation) (evalpool.Request, error) {
	switch pb.Platform.Kind {
	case hw.KindCPU:
		return evalpool.Request{Op: evalpool.OpCPU, Proc: a.Proc, Mem: a.Mem}, nil
	case hw.KindGPU:
		return evalpool.Request{Op: evalpool.OpGPUMemPower, Proc: a.Total(), Mem: a.Mem}, nil
	default:
		return evalpool.Request{}, fmt.Errorf("core: unknown platform kind %v", pb.Platform.Kind)
	}
}

// Evaluate runs a single allocation and returns its outcome. On CPU
// platforms the allocation members program the two RAPL domains; on GPU
// platforms Mem selects the memory clock and the total allocation is the
// board cap.
func (pb *Problem) Evaluate(a Allocation) (Evaluation, error) {
	req, err := pb.request(a)
	if err != nil {
		return Evaluation{}, err
	}
	res, err := pb.engine().Evaluate(evalpool.Problem{Platform: pb.Platform, Workload: pb.Workload}, req)
	if err != nil {
		return Evaluation{}, err
	}
	return Evaluation{Alloc: a, Result: res}, nil
}

// Sweep enumerates the allocation space A for the problem's budget and
// evaluates every point. CPU platforms step P_proc in Step-watt
// increments, giving memory the remainder; GPU platforms enumerate the
// settable memory clocks under the board cap. Points are evaluated
// through the problem's engine — in parallel when it has more than one
// worker — with results always in enumeration order.
func (pb *Problem) Sweep() ([]Evaluation, error) {
	pb.normalize()
	switch pb.Platform.Kind {
	case hw.KindCPU:
		return pb.sweepCPU()
	case hw.KindGPU:
		return pb.sweepGPU()
	default:
		return nil, fmt.Errorf("core: unknown platform kind %v", pb.Platform.Kind)
	}
}

// evaluateAll batches the allocations through the engine and pairs each
// with its result, preserving order.
func (pb *Problem) evaluateAll(allocs []Allocation) ([]Evaluation, error) {
	reqs := make([]evalpool.Request, len(allocs))
	for i, a := range allocs {
		req, err := pb.request(a)
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	results, err := pb.engine().EvaluateAll(context.Background(),
		evalpool.Problem{Platform: pb.Platform, Workload: pb.Workload}, reqs)
	if err != nil {
		return nil, err
	}
	evals := make([]Evaluation, len(allocs))
	for i := range allocs {
		evals[i] = Evaluation{Alloc: allocs[i], Result: results[i]}
	}
	return evals, nil
}

func (pb *Problem) sweepCPU() ([]Evaluation, error) {
	if pb.Budget < pb.ProcMin+pb.MemMin {
		return nil, fmt.Errorf("core: budget %v below sweep floor %v",
			pb.Budget, pb.ProcMin+pb.MemMin)
	}
	allocs := make([]Allocation, 0, int((pb.Budget-pb.MemMin-pb.ProcMin)/pb.Step)+1)
	for proc := pb.ProcMin; proc <= pb.Budget-pb.MemMin; proc += pb.Step {
		allocs = append(allocs, Allocation{Proc: proc, Mem: pb.Budget - proc})
	}
	return pb.evaluateAll(allocs)
}

func (pb *Problem) sweepGPU() ([]Evaluation, error) {
	gpu := pb.Platform.GPU
	if pb.Budget < gpu.MinCap || pb.Budget > gpu.MaxCap {
		return nil, fmt.Errorf("core: budget %v outside GPU cap range [%v, %v]",
			pb.Budget, gpu.MinCap, gpu.MaxCap)
	}
	clocks := gpu.Mem.Clocks()
	reqs := make([]evalpool.Request, len(clocks))
	for i, clock := range clocks {
		reqs[i] = evalpool.Request{Op: evalpool.OpGPUClock, Proc: pb.Budget, Clock: clock}
	}
	results, err := pb.engine().EvaluateAll(context.Background(),
		evalpool.Problem{Platform: pb.Platform, Workload: pb.Workload}, reqs)
	if err != nil {
		return nil, err
	}
	evals := make([]Evaluation, len(clocks))
	for i, clock := range clocks {
		memPower := gpu.Mem.Power(clock)
		evals[i] = Evaluation{
			Alloc:  Allocation{Proc: pb.Budget - memPower, Mem: memPower},
			Result: results[i],
		}
	}
	return evals, nil
}

// Best returns the evaluation with the highest performance among those
// whose actual power respects the allocation's total (allocations whose
// caps sit below the hardware floors are not respected — the paper's
// scenarios V and VI — and cannot count as valid optima). Ties break
// toward lower actual power. If every evaluation violates its bound,
// Best falls back to the full set. It returns false if evals is empty.
func Best(evals []Evaluation) (Evaluation, bool) {
	if len(evals) == 0 {
		return Evaluation{}, false
	}
	best, found := Evaluation{}, false
	for _, e := range evals {
		if violatesBound(e) {
			continue
		}
		if !found || e.Result.Perf > best.Result.Perf ||
			(e.Result.Perf == best.Result.Perf && e.Result.TotalPower < best.Result.TotalPower) {
			best = e
			found = true
		}
	}
	if found {
		return best, true
	}
	best = evals[0]
	for _, e := range evals[1:] {
		if e.Result.Perf > best.Result.Perf {
			best = e
		}
	}
	return best, true
}

// boundSlack tolerates actuator quantization when checking whether an
// evaluation's actual power stayed within its allocated total.
const boundSlack units.Power = 1

func violatesBound(e Evaluation) bool {
	return e.Result.TotalPower > e.Alloc.Total()+boundSlack
}

// Worst returns the evaluation with the lowest performance (used for the
// best-to-worst spreads the paper reports). It returns false if evals is
// empty.
func Worst(evals []Evaluation) (Evaluation, bool) {
	if len(evals) == 0 {
		return Evaluation{}, false
	}
	worst := evals[0]
	for _, e := range evals[1:] {
		if e.Result.Perf < worst.Result.Perf {
			worst = e
		}
	}
	return worst, true
}

// PerfMax solves the problem exhaustively: the upper performance bound
// for the budget and the allocation that attains it.
func (pb *Problem) PerfMax() (Evaluation, error) {
	evals, err := pb.Sweep()
	if err != nil {
		return Evaluation{}, err
	}
	best, ok := Best(evals)
	if !ok {
		return Evaluation{}, fmt.Errorf("core: empty allocation space for budget %v", pb.Budget)
	}
	return best, nil
}

// CurvePoint is one point of a perf_max ~ P_b curve.
type CurvePoint struct {
	Budget  units.Power
	PerfMax float64
	Best    Allocation
	// ActualPower is the power the best allocation actually consumed —
	// the paper's measure of budget waste when it sits far below Budget.
	ActualPower units.Power
}

// Curve computes perf_max for each budget, reusing the problem's sweep
// parameters. Budgets that are infeasible (below the sweep floor or
// outside the GPU cap range) are skipped.
func Curve(p hw.Platform, w workload.Workload, budgets []units.Power) ([]CurvePoint, error) {
	return CurveOn(nil, p, w, budgets)
}

// CurveOn is Curve with an explicit evaluation engine (nil selects the
// shared default), whose workers each budget's sweep fans out over.
func CurveOn(e *evalpool.Engine, p hw.Platform, w workload.Workload, budgets []units.Power) ([]CurvePoint, error) {
	var pts []CurvePoint
	for _, b := range budgets {
		pb := NewProblem(p, w, b)
		pb.Engine = e
		best, err := pb.PerfMax()
		if err != nil {
			continue
		}
		pts = append(pts, CurvePoint{
			Budget:      b,
			PerfMax:     best.Result.Perf,
			Best:        best.Alloc,
			ActualPower: best.Result.TotalPower,
		})
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("core: no feasible budget in range")
	}
	return pts, nil
}

// BudgetRange returns n budgets evenly spaced over [lo, hi] inclusive.
func BudgetRange(lo, hi units.Power, n int) []units.Power {
	if n < 2 || hi <= lo {
		return []units.Power{lo}
	}
	out := make([]units.Power, n)
	for i := 0; i < n; i++ {
		out[i] = lo + units.Power(float64(i)/float64(n-1)*(hi-lo).Watts())
	}
	return out
}

// Knee returns the budget at which a perf_max curve's marginal return
// drops below frac of its initial slope — the "stop budgeting beyond
// this" point the paper's Section 3.1 insights call for. It returns the
// last budget if the curve never flattens.
func Knee(pts []CurvePoint, frac float64) (units.Power, bool) {
	if len(pts) < 3 {
		return 0, false
	}
	first := slope(pts[0], pts[1])
	if first <= 0 {
		return pts[0].Budget, true
	}
	for i := 1; i < len(pts)-1; i++ {
		if slope(pts[i], pts[i+1]) < frac*first {
			return pts[i].Budget, true
		}
	}
	return pts[len(pts)-1].Budget, true
}

func slope(a, b CurvePoint) float64 {
	dw := (b.Budget - a.Budget).Watts()
	if dw <= 0 {
		return 0
	}
	return (b.PerfMax - a.PerfMax) / dw
}

// MaxDemand returns the actual component powers when the workload runs
// with no caps — the workload's maximum power demand, above which extra
// budget is pure waste (the paper's scenario I discussion). It is one
// simulator call on the shared engine.
func MaxDemand(p hw.Platform, w workload.Workload) (Allocation, error) {
	pr := evalpool.Problem{Platform: p, Workload: w}
	var req evalpool.Request
	switch p.Kind {
	case hw.KindCPU:
		req = evalpool.Request{Op: evalpool.OpCPU}
	case hw.KindGPU:
		req = evalpool.Request{Op: evalpool.OpGPUClock, Proc: p.GPU.MaxCap, Clock: p.GPU.Mem.ClockNom}
	default:
		return Allocation{}, fmt.Errorf("core: unknown platform kind %v", p.Kind)
	}
	res, err := evalpool.Default().Evaluate(pr, req)
	if err != nil {
		return Allocation{}, err
	}
	return Allocation{Proc: res.ProcPower, Mem: res.MemPower}, nil
}

// Spread returns best-over-worst performance across evaluations — the
// paper's headline motivation numbers (30x for CPU STREAM at 208 W, >30%
// on the GPU at 140 W). It returns +Inf when the worst is zero and 1 for
// fewer than two evaluations.
func Spread(evals []Evaluation) float64 {
	best, ok := Best(evals)
	if !ok {
		return 1
	}
	worst, _ := Worst(evals)
	if worst.Result.Perf <= 0 {
		return math.Inf(1)
	}
	return best.Result.Perf / worst.Result.Perf
}
