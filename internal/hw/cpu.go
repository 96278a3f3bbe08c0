// Package hw defines the hardware component models used by the
// power-bounded computing simulator: CPU packages with P-states (DVFS),
// T-states (clock/duty throttling) and a C-state power floor; DRAM with a
// background-plus-access-energy power model and bandwidth throttling; and
// discrete GPUs with SM and memory clock tables plus a board power
// governor. The four concrete platforms correspond to Table 2 of the paper
// (two Xeon server nodes, Titan XP, Titan V).
//
// The models are calibrated so that the critical power values the paper
// reports (e.g. a 48 W processor floor and roughly 112 W / 116 W
// CPU / DRAM maximum demand for RandomAccess on the IvyBridge node) fall
// in the right ranges; see the calibration tests.
package hw

import (
	"fmt"
	"math"

	"repro/internal/units"
)

// CPUSpec models the aggregate processor component of a compute node (all
// sockets combined, matching the paper's simplification that the CPU power
// budget is evenly distributed across cores).
type CPUSpec struct {
	// Name identifies the processor, e.g. "2x Xeon E5-2670v2 (IvyBridge)".
	Name string
	// Sockets and CoresPerSocket describe the core count.
	Sockets        int
	CoresPerSocket int
	// FMin and FNom bound the P-state (DVFS) frequency range. Turbo is
	// disabled, as in the paper's experiments, so FNom is the highest
	// stable operating frequency.
	FMin, FNom units.Frequency
	// PStateStep is the DVFS granularity (typically 100 MHz).
	PStateStep units.Frequency
	// VMin and VNom are the core voltages at FMin and FNom; voltage is
	// interpolated linearly between them.
	VMin, VNom float64
	// OpsPerCyclePerCore is the peak per-core throughput in operations per
	// cycle (e.g. 8 double-precision FLOPs on IvyBridge with AVX).
	OpsPerCyclePerCore float64
	// IdlePower is the minimum package power while the node runs — the
	// hardware-determined floor the paper calls P_cpu_L4 (48 W on the
	// IvyBridge node). RAPL cannot push the package below this.
	IdlePower units.Power
	// UncorePower is the fixed active-uncore adder (ring, LLC, memory
	// controllers) that scales with duty cycle but not with frequency.
	UncorePower units.Power
	// MaxDynPower is the core dynamic power at FNom, nominal voltage, and
	// 100% activity across all cores.
	MaxDynPower units.Power
	// TStateSteps is the number of clock-throttling duty steps below 100%
	// (8 steps gives duties 87.5%, 75%, ..., 12.5%).
	TStateSteps int
	// MinDuty is the lowest duty cycle T-states can impose.
	MinDuty float64
}

// Validate reports a descriptive error if the spec is internally
// inconsistent.
func (c *CPUSpec) Validate() error {
	switch {
	case c.Sockets <= 0 || c.CoresPerSocket <= 0:
		return fmt.Errorf("cpu %q: non-positive core counts", c.Name)
	case c.FMin <= 0 || c.FNom < c.FMin:
		return fmt.Errorf("cpu %q: invalid frequency range [%v, %v]", c.Name, c.FMin, c.FNom)
	case c.PStateStep <= 0:
		return fmt.Errorf("cpu %q: non-positive P-state step", c.Name)
	case c.VMin <= 0 || c.VNom < c.VMin:
		return fmt.Errorf("cpu %q: invalid voltage range [%v, %v]", c.Name, c.VMin, c.VNom)
	case c.OpsPerCyclePerCore <= 0:
		return fmt.Errorf("cpu %q: non-positive ops/cycle", c.Name)
	case c.IdlePower <= 0 || c.MaxDynPower <= 0 || c.UncorePower < 0:
		return fmt.Errorf("cpu %q: invalid power parameters", c.Name)
	case c.TStateSteps < 1 || c.MinDuty <= 0 || c.MinDuty > 1:
		return fmt.Errorf("cpu %q: invalid T-state configuration", c.Name)
	}
	return nil
}

// Cores returns the total number of physical cores.
func (c *CPUSpec) Cores() int { return c.Sockets * c.CoresPerSocket }

// PStates returns the available P-state frequencies in ascending order,
// from FMin to FNom inclusive: PStateAt(i) for every i below
// NumPStates.
func (c *CPUSpec) PStates() []units.Frequency {
	states := make([]units.Frequency, c.NumPStates())
	for i := range states {
		states[i] = c.PStateAt(i)
	}
	return states
}

// NumPStates returns the number of P-states: the grid points
// FMin + k·PStateStep below FNom + PStateStep/2, plus a final FNom
// state when the grid does not land on it.
func (c *CPUSpec) NumPStates() int {
	top := c.pTopBin()
	if top < 0 || c.FMin+units.Frequency(top)*c.PStateStep < c.FNom {
		return top + 2
	}
	return top + 1
}

// PStateAt returns the i-th P-state, 0 <= i < NumPStates():
// FMin + i·PStateStep, clamped to FNom. For whole-Hz specs (every
// catalog CPU) it equals stepping up from FMin by repeated addition,
// bit for bit. PStateBins tables it, with each state's power
// coefficient, for the package actuator.
func (c *CPUSpec) PStateAt(i int) units.Frequency {
	f := c.FMin + units.Frequency(i)*c.PStateStep
	if f > c.FNom {
		f = c.FNom
	}
	return f
}

// pTopBin returns the largest k with FMin + k·PStateStep strictly below
// FNom + PStateStep/2, or -1 when even FMin is not. The quotient
// estimate is corrected against the exact grid comparison, so rounding
// in the division cannot move the state count.
func (c *CPUSpec) pTopBin() int {
	lim := c.FNom + c.PStateStep/2
	at := func(k int) units.Frequency { return c.FMin + units.Frequency(k)*c.PStateStep }
	if at(0) >= lim {
		return -1
	}
	k := int((c.FNom - c.FMin) / c.PStateStep)
	for at(k+1) < lim {
		k++
	}
	for k > 0 && at(k) >= lim {
		k--
	}
	return k
}

// Duties returns the available T-state duty cycles in descending order,
// starting at 1.0 (no throttling) down to MinDuty: DutyAt(i) for every
// i below NumDuties.
func (c *CPUSpec) Duties() []float64 {
	duties := make([]float64, c.NumDuties())
	for i := range duties {
		duties[i] = c.DutyAt(i)
	}
	return duties
}

// NumDuties returns the number of T-state duty cycles, 1.0 included.
func (c *CPUSpec) NumDuties() int {
	if c.TStateSteps <= 0 {
		return 1
	}
	return c.TStateSteps + 1
}

// DutyAt returns the i-th duty cycle, 0 <= i < NumDuties(): 1.0 for
// i = 0, else 1 − i·(1 − MinDuty)/TStateSteps, clamped to MinDuty.
func (c *CPUSpec) DutyAt(i int) float64 {
	if i == 0 {
		return 1.0
	}
	step := (1.0 - c.MinDuty) / float64(c.TStateSteps)
	d := 1.0 - float64(i)*step
	if d < c.MinDuty {
		d = c.MinDuty
	}
	return d
}

// Voltage returns the core voltage at frequency f, interpolated linearly
// over the P-state range and clamped outside it.
func (c *CPUSpec) Voltage(f units.Frequency) float64 {
	t := units.InvLerp(c.FMin.Hz(), c.FNom.Hz(), f.Hz())
	return units.Lerp(c.VMin, c.VNom, t)
}

// Power returns the package power at frequency f, duty cycle duty, and
// workload activity factor act in [0,1]. Activity folds in both the
// workload's intrinsic switching intensity and the fraction of time cores
// are stalled on memory (stalled cores burn much less dynamic power).
//
// The model is the standard CMOS decomposition: a hardware idle floor,
// plus an uncore adder and a core-dynamic term f*V^2 that both gate with
// the duty cycle. It is PowerAt of DynCoef(f).
func (c *CPUSpec) Power(f units.Frequency, duty, act float64) units.Power {
	return c.PowerAt(c.DynCoef(f), duty, act)
}

// DynCoef returns the core dynamic power at frequency f (clamped to the
// P-state range) and full activity, before the duty gate:
// MaxDynPower·freqRatio·voltRatio·voltRatio, multiplied left to right.
func (c *CPUSpec) DynCoef(f units.Frequency) float64 {
	f = f.Clamp(c.FMin, c.FNom)
	v := c.Voltage(f)
	freqRatio := f.Hz() / c.FNom.Hz()
	voltRatio := v / c.VNom
	return c.MaxDynPower.Watts() * freqRatio * voltRatio * voltRatio
}

// PowerAt is Power for the frequency whose DynCoef is coef, so a
// tabled coefficient (PStateBins) gives Power's value bit for bit.
func (c *CPUSpec) PowerAt(coef, duty, act float64) units.Power {
	duty = clamp01Range(duty, c.MinDuty, 1)
	act = clamp01(act)
	// The conversion rounds the product before the add: without it an
	// FMA architecture may fuse the two, and a coefficient loaded from
	// a table could then round differently from one computed inline.
	dyn := float64(coef * act)
	return c.IdlePower + units.Power((c.UncorePower.Watts()+dyn)*duty)
}

// Bin is one state of a DVFS ladder: its frequency and the DynCoef
// its power scales by activity.
type Bin struct {
	Freq units.Frequency
	Coef float64
}

// PStateBins returns the P-state ladder: bin i is PStateAt(i) and its
// DynCoef, for every i below NumPStates, so an actuator reads each
// probed state's power as one PowerAt instead of re-deriving voltage
// and ratios per probe. A catalog entry (PlatformByName's specs) gets
// its own ladder, built once with the catalog and shared by every
// caller, who must not write to it; any other spec, a Clone or a copy
// included, gets a freshly built one.
func (c *CPUSpec) PStateBins() []Bin {
	if bins := entryBins(catalog().pstates, c); bins != nil {
		return bins
	}
	return c.buildPStateBins()
}

// buildPStateBins builds the P-state ladder PStateBins returns.
func (c *CPUSpec) buildPStateBins() []Bin {
	bins := make([]Bin, c.NumPStates())
	for i := range bins {
		f := c.PStateAt(i)
		bins[i] = Bin{Freq: f, Coef: c.DynCoef(f)}
	}
	return bins
}

// MaxPower returns the package power at the highest P-state with no
// throttling for the given activity factor. For act==1 this is the
// absolute package maximum.
func (c *CPUSpec) MaxPower(act float64) units.Power {
	return c.Power(c.FNom, 1, act)
}

// MinActivePower returns the lowest power the package can be driven to by
// capping (lowest P-state, deepest T-state) for the given activity. The
// hardware floor IdlePower is the limit as activity goes to zero.
func (c *CPUSpec) MinActivePower(act float64) units.Power {
	return c.Power(c.FMin, c.MinDuty, act)
}

// PeakComputeRate returns the aggregate peak instruction throughput at
// frequency f and duty cycle duty.
func (c *CPUSpec) PeakComputeRate(f units.Frequency, duty float64) units.Rate {
	f = f.Clamp(c.FMin, c.FNom)
	duty = clamp01Range(duty, c.MinDuty, 1)
	return units.Rate(float64(c.Cores()) * c.OpsPerCyclePerCore * f.Hz() * duty)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func clamp01Range(x, lo, hi float64) float64 {
	if math.IsNaN(x) {
		return lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
