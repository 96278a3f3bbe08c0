// Package perfmodel implements the roofline-with-overlap performance model
// at the heart of the simulator. Given a phase's work parameters and the
// compute and memory capacities currently available (after power capping),
// it solves for the operating point: achieved rate, time split between
// compute and memory, stall fraction, and component utilizations.
//
// The model generalizes the classic roofline. Per work unit the phase
// needs compute time Tc = ops/C and memory time Tm = bytes/B; the total
// time combines them with a p-norm, T = (Tc^p + Tm^p)^(1/p), where the
// overlap exponent p interpolates between fully serialized access (p=1,
// T = Tc+Tm) and perfect overlap (p→∞, T = max(Tc,Tm)). This single knob
// captures the difference between latency-bound irregular codes (low p)
// and software-pipelined streaming kernels (high p).
package perfmodel

import (
	"math"

	"repro/internal/units"
	"repro/internal/workload"
)

// OperatingPoint is the solved steady-state execution point of one phase
// under given compute and memory capacities.
type OperatingPoint struct {
	// Rate is the achieved work-unit completion rate.
	Rate units.Rate
	// UnitTime is the seconds per work unit (1/Rate).
	UnitTime float64
	// ComputeTime and MemTime are the per-unit compute and memory service
	// times before overlap.
	ComputeTime, MemTime float64
	// StallFrac is the fraction of wall time the processor waits on
	// memory and cannot retire instructions; it feeds the activity factor
	// (and hence power) of the processor.
	StallFrac float64
	// ComputeUtil and MemUtil are the fractions of the available compute
	// and memory capacity actually consumed — the utilizations plotted in
	// Figure 5 of the paper.
	ComputeUtil, MemUtil float64
	// OpsRate is the achieved operation throughput.
	OpsRate units.Rate
	// BandwidthUsed is the achieved memory traffic rate; it determines
	// the memory component's actual power draw.
	BandwidthUsed units.Bandwidth
}

// Solve computes the operating point for phase p when the processor can
// deliver computeCap operations per second and the memory system can
// deliver memCap bytes per second. Capacities must already include
// efficiency and capping effects.
//
// Phases with zero demand on one side degenerate gracefully: a pure
// compute phase never stalls, a pure copy phase is all stall.
func Solve(p *workload.Phase, computeCap units.Rate, memCap units.Bandwidth) OperatingPoint {
	var op OperatingPoint
	if computeCap <= 0 {
		computeCap = 1 // 1 op/s floor avoids division blowups; effectively halted
	}
	if memCap <= 0 {
		memCap = 1
	}
	tc := p.OpsPerUnit / computeCap.OpsPerSecond()
	tm := p.BytesPerUnit / memCap.BytesPerSecond()
	op.ComputeTime, op.MemTime = tc, tm

	t := pNorm(tc, tm, p.Overlap)
	if t <= 0 {
		// No work in this phase; treat as infinitely fast.
		op.Rate = units.Rate(math.Inf(1))
		return op
	}
	op.UnitTime = t
	op.Rate = units.Rate(1 / t)
	op.OpsRate = units.Rate(p.OpsPerUnit / t)
	op.BandwidthUsed = units.Bandwidth(p.BytesPerUnit / t)
	op.ComputeUtil = clamp01(tc / t)
	op.MemUtil = clamp01(tm / t)
	// The processor is busy for the compute portion of each unit and
	// stalled for the remainder.
	op.StallFrac = clamp01((t - tc) / t)
	return op
}

// SolveThrottled is Solve with an additional hard bandwidth ceiling, the
// form RAPL's DRAM throttling takes: the pattern-limited capacity memCap
// still sets the contention (p-norm) behaviour, but achieved traffic can
// never exceed ceiling. When the unconstrained solution would move more
// bytes than the ceiling permits, execution becomes throughput limited at
// exactly the ceiling and the per-unit time stretches accordingly.
//
// Separating the two matters: capping DRAM slightly above a workload's
// actual traffic demand must not slow it down (the throttle never
// engages), whereas folding the ceiling into the p-norm capacity would
// charge a spurious contention penalty for running near it.
func SolveThrottled(p *workload.Phase, computeCap units.Rate, memCap units.Bandwidth, ceiling units.Bandwidth) OperatingPoint {
	return Throttle(p, Solve(p, computeCap, memCap), ceiling)
}

// Throttle applies the hard bandwidth ceiling to op, the Solve result
// for phase p: SolveThrottled is Throttle of Solve. A caller that
// solves one point under many ceilings solves it once and throttles
// each.
func Throttle(p *workload.Phase, op OperatingPoint, ceiling units.Bandwidth) OperatingPoint {
	if ceiling <= 0 || op.BandwidthUsed <= ceiling || p.BytesPerUnit == 0 {
		return op
	}
	// Throughput limited by the throttle: the unit time stretches to move
	// BytesPerUnit at exactly the ceiling rate.
	t := p.BytesPerUnit / ceiling.BytesPerSecond()
	if t <= op.UnitTime {
		return op
	}
	op.UnitTime = t
	op.Rate = units.Rate(1 / t)
	op.OpsRate = units.Rate(p.OpsPerUnit / t)
	op.BandwidthUsed = ceiling
	op.MemTime = t // the memory system is the binding resource
	op.ComputeUtil = clamp01(op.ComputeTime / t)
	op.MemUtil = 1
	op.StallFrac = clamp01((t - op.ComputeTime) / t)
	return op
}

// pNorm returns (a^p + b^p)^(1/p), computed in a normalized form to avoid
// overflow/underflow for the tiny per-unit times involved. For p beyond
// practical precision it returns max(a,b).
func pNorm(a, b, p float64) float64 {
	if a < 0 {
		a = 0
	}
	if b < 0 {
		b = 0
	}
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	if p < 1 {
		p = 1
	}
	m := math.Max(a, b)
	if p > 64 {
		return m
	}
	ra, rb := a/m, b/m
	return m * math.Pow(math.Pow(ra, p)+math.Pow(rb, p), 1/p)
}

// Balance summarizes how far an operating point is from the balanced
// compute/memory interaction the paper identifies as optimal: 1 means
// compute and memory utilization are equal, 0 means one side is idle.
func Balance(op OperatingPoint) float64 {
	hi := math.Max(op.ComputeUtil, op.MemUtil)
	lo := math.Min(op.ComputeUtil, op.MemUtil)
	if hi == 0 {
		return 0
	}
	return lo / hi
}

func clamp01(x float64) float64 {
	if x < 0 || math.IsNaN(x) {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
