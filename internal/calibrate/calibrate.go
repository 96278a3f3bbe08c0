// Package calibrate fits workload models to measured anchors — the
// workflow for porting a real application into the simulator. Given the
// numbers an operator can read off a real node (uncapped package power,
// uncapped DRAM power, achieved performance), it adjusts the model's free
// parameters (activity factor, bandwidth efficiency, compute efficiency)
// until the simulated run reproduces them.
//
// The same procedure produced the built-in catalog's calibration against
// the paper's reported watt ranges (DESIGN.md section 2).
package calibrate

import (
	"fmt"
	"math"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Anchors are the measured values to reproduce, all from one uncapped run
// on the target platform. Zero-valued anchors are ignored.
type Anchors struct {
	// ProcPower is the measured package power.
	ProcPower units.Power
	// MemPower is the measured DRAM power.
	MemPower units.Power
	// Perf is the measured performance in the workload's unit.
	Perf float64
}

// Result reports the fit.
type Result struct {
	// Workload is the calibrated model.
	Workload workload.Workload
	// ProcErr, MemErr and PerfErr are the relative residuals against the
	// anchors (zero for anchors that were not given).
	ProcErr, MemErr, PerfErr float64
	// Iterations counts simulator runs spent fitting.
	Iterations int
}

// tolerance is the relative residual at which a fit is accepted.
const tolerance = 0.02

// maxBisection bounds each parameter search.
const maxBisection = 40

// Fit adjusts w's free parameters so an uncapped run on p reproduces the
// anchors. The fit order follows the model's causal structure:
//
//  1. bandwidth efficiency sets the achieved traffic, which dominates
//     both DRAM power and memory-bound performance;
//  2. the activity factors scale package power at fixed performance;
//  3. compute efficiency trims performance for compute-bound workloads.
//
// Anchors that conflict with the model's structure (e.g. a DRAM power
// below the platform's background floor) return an error rather than a
// bad fit. The fit adjusts a Clone of w: w's phases, which may be a
// shared catalog entry's, are left unchanged.
func Fit(p hw.Platform, w workload.Workload, a Anchors) (Result, error) {
	if p.Kind != hw.KindCPU {
		return Result{}, fmt.Errorf("calibrate: platform %q is not a CPU platform", p.Name)
	}
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	if a.MemPower > 0 && a.MemPower <= p.DRAM.BackgroundPower {
		return Result{}, fmt.Errorf("calibrate: DRAM anchor %v at or below the %v background floor",
			a.MemPower, p.DRAM.BackgroundPower)
	}
	if a.ProcPower > 0 && a.ProcPower <= p.CPU.IdlePower {
		return Result{}, fmt.Errorf("calibrate: package anchor %v at or below the %v hardware floor",
			a.ProcPower, p.CPU.IdlePower)
	}

	res := Result{Workload: w.Clone()}
	run := func() (sim.Result, error) {
		res.Iterations++
		return sim.RunCPU(p, &res.Workload, 0, 0)
	}

	// 1. Memory power (and memory-bound perf) via bandwidth efficiency.
	if a.MemPower > 0 {
		err := bisect(0.01, 1.0, func(x float64) (float64, error) {
			scaleAll(&res.Workload, func(ph *workload.Phase) { ph.BandwidthEff = x })
			r, err := run()
			if err != nil {
				return 0, err
			}
			return r.MemPower.Watts() - a.MemPower.Watts(), nil
		})
		if err != nil {
			return Result{}, fmt.Errorf("calibrate: memory power: %w", err)
		}
	}

	// 2. Package power via the activity factors (scaled jointly so the
	// busy/stalled ratio is preserved).
	if a.ProcPower > 0 {
		base := snapshotActivities(&res.Workload)
		err := bisect(0.05, 1.6, func(scale float64) (float64, error) {
			applyActivityScale(&res.Workload, base, scale)
			r, err := run()
			if err != nil {
				return 0, err
			}
			return r.ProcPower.Watts() - a.ProcPower.Watts(), nil
		})
		if err != nil {
			return Result{}, fmt.Errorf("calibrate: package power: %w", err)
		}
	}

	// 3. Performance via compute efficiency (only moves compute-bound
	// workloads; memory-bound performance was set in step 1).
	if a.Perf > 0 {
		err := bisect(0.05, 1.0, func(x float64) (float64, error) {
			scaleAll(&res.Workload, func(ph *workload.Phase) { ph.ComputeEff = x })
			r, err := run()
			if err != nil {
				return 0, err
			}
			return r.Perf - a.Perf, nil
		})
		// A perf anchor the compute knob cannot reach is reported through
		// the residual rather than failing: the workload may simply be
		// memory bound.
		_ = err
	}

	final, err := run()
	if err != nil {
		return Result{}, err
	}
	res.ProcErr = relErr(final.ProcPower.Watts(), a.ProcPower.Watts())
	res.MemErr = relErr(final.MemPower.Watts(), a.MemPower.Watts())
	res.PerfErr = relErr(final.Perf, a.Perf)
	return res, nil
}

// Converged reports whether every given anchor fits within tolerance.
func (r Result) Converged() bool {
	return r.ProcErr <= tolerance && r.MemErr <= tolerance && r.PerfErr <= tolerance
}

// relErr is the relative residual, zero when the anchor was not given.
func relErr(got, want float64) float64 {
	if want <= 0 {
		return 0
	}
	return math.Abs(got-want) / want
}

// bisect finds x in [lo, hi] where f(x) crosses zero, assuming f is
// monotone increasing in x. If the target lies outside the bracket the
// nearest endpoint is kept (the caller reads the residual).
func bisect(lo, hi float64, f func(float64) (float64, error)) error {
	fLo, err := f(lo)
	if err != nil {
		return err
	}
	if fLo >= 0 {
		return nil // already above target at the bottom: keep lo
	}
	fHi, err := f(hi)
	if err != nil {
		return err
	}
	if fHi <= 0 {
		return nil // target unreachable: keep hi
	}
	for i := 0; i < maxBisection; i++ {
		mid := (lo + hi) / 2
		v, err := f(mid)
		if err != nil {
			return err
		}
		if math.Abs(v) < 1e-3 {
			return nil
		}
		if v < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	// Land on the midpoint of the final bracket.
	_, err = f((lo + hi) / 2)
	return err
}

func scaleAll(w *workload.Workload, set func(*workload.Phase)) {
	for i := range w.Phases {
		set(&w.Phases[i])
	}
}

type activitySnapshot struct{ base, stall []float64 }

func snapshotActivities(w *workload.Workload) activitySnapshot {
	var s activitySnapshot
	for _, ph := range w.Phases {
		s.base = append(s.base, ph.ActivityBase)
		s.stall = append(s.stall, ph.StallActivity)
	}
	return s
}

func applyActivityScale(w *workload.Workload, snap activitySnapshot, scale float64) {
	for i := range w.Phases {
		b := clampRange(snap.base[i]*scale, 0.02, 1)
		s := clampRange(snap.stall[i]*scale, 0.01, b)
		w.Phases[i].ActivityBase = b
		w.Phases[i].StallActivity = s
	}
}

func clampRange(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
