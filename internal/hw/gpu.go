package hw

import (
	"fmt"

	"repro/internal/units"
)

// GPUMemSpec models a discrete GPU's global memory (GDDR5X or HBM2). The
// user-visible knob is the memory clock (set through frequency offsets in
// nvidia-settings, as in the paper); memory power is estimated from the
// clock with an empirical linear model, exactly as the paper does for
// Figure 7 ("memory power is estimated using memory frequency setting and
// empirical power models built from experiment data on the card").
type GPUMemSpec struct {
	// Name identifies the memory technology, e.g. "12 GB GDDR5X".
	Name string
	// ClockMin, ClockNom and ClockMax bound the settable memory clock.
	// ClockNom is the clock the default driver policy always uses.
	ClockMin, ClockNom, ClockMax units.Frequency
	// ClockStep is the offset granularity.
	ClockStep units.Frequency
	// BytesPerClock is the effective bus width: peak bandwidth is
	// BytesPerClock * clock.
	BytesPerClock float64
	// PowerMin and PowerMax anchor the empirical linear clock-to-power
	// model at ClockMin and ClockMax.
	PowerMin, PowerMax units.Power
}

// Validate reports a descriptive error if the spec is internally
// inconsistent.
func (m *GPUMemSpec) Validate() error {
	switch {
	case m.ClockMin <= 0 || m.ClockNom < m.ClockMin || m.ClockMax < m.ClockNom:
		return fmt.Errorf("gpumem %q: invalid clock range", m.Name)
	case m.ClockStep <= 0:
		return fmt.Errorf("gpumem %q: non-positive clock step", m.Name)
	case m.BytesPerClock <= 0:
		return fmt.Errorf("gpumem %q: non-positive bus width", m.Name)
	case m.PowerMin <= 0 || m.PowerMax < m.PowerMin:
		return fmt.Errorf("gpumem %q: invalid power range", m.Name)
	}
	return nil
}

// Power returns the empirical memory power at clock f.
func (m *GPUMemSpec) Power(f units.Frequency) units.Power {
	t := units.InvLerp(m.ClockMin.Hz(), m.ClockMax.Hz(), f.Clamp(m.ClockMin, m.ClockMax).Hz())
	return units.Power(units.Lerp(m.PowerMin.Watts(), m.PowerMax.Watts(), t))
}

// ClockForPower inverts Power: the highest memory clock whose estimated
// power does not exceed budget, clamped to the settable range.
func (m *GPUMemSpec) ClockForPower(budget units.Power) units.Frequency {
	t := units.InvLerp(m.PowerMin.Watts(), m.PowerMax.Watts(), budget.Watts())
	f := units.Frequency(units.Lerp(m.ClockMin.Hz(), m.ClockMax.Hz(), t))
	return quantizeDown(f, m.ClockMin, m.ClockStep).Clamp(m.ClockMin, m.ClockMax)
}

// PeakBandwidth returns the peak bandwidth at clock f.
func (m *GPUMemSpec) PeakBandwidth(f units.Frequency) units.Bandwidth {
	f = f.Clamp(m.ClockMin, m.ClockMax)
	return units.Bandwidth(m.BytesPerClock * f.Hz())
}

// Clocks returns the settable memory clocks in ascending order.
func (m *GPUMemSpec) Clocks() []units.Frequency {
	var cs []units.Frequency
	for f := m.ClockMin; f <= m.ClockMax+m.ClockStep/2; f += m.ClockStep {
		if f > m.ClockMax {
			f = m.ClockMax
		}
		cs = append(cs, f)
	}
	if len(cs) == 0 || cs[len(cs)-1] != m.ClockMax {
		cs = append(cs, m.ClockMax)
	}
	return cs
}

// GPUSpec models a discrete GPU accelerator: streaming multiprocessors
// with a DVFS clock range managed by the board power governor, plus global
// memory. The board-level power cap (nvidia-smi) and the clock offsets
// (nvidia-settings) are the two control surfaces the paper uses.
type GPUSpec struct {
	// Name identifies the card, e.g. "Nvidia Titan XP".
	Name string
	// SMs and LanesPerSM describe the compute configuration.
	SMs        int
	LanesPerSM int
	// OpsPerCyclePerLane is the peak per-lane throughput (2 for FMA).
	OpsPerCyclePerLane float64
	// SMClockMin and SMClockNom bound the SM DVFS range the governor uses.
	SMClockMin, SMClockNom units.Frequency
	// SMClockStep is the DVFS bin granularity (~13 MHz on Pascal/Volta).
	SMClockStep units.Frequency
	// VMin and VNom are SM voltages at the clock range ends.
	VMin, VNom float64
	// IdleBoard is the fixed board power (fans, VRM loss, I/O) excluded
	// from the SM and memory terms.
	IdleBoard units.Power
	// SMIdlePower is the SM-domain static power.
	SMIdlePower units.Power
	// SMMaxDynPower is the SM dynamic power at nominal clock and 100%
	// activity.
	SMMaxDynPower units.Power
	// Mem is the global memory.
	Mem GPUMemSpec
	// TDP is the default board power cap; MinCap and MaxCap bound the
	// range a user can set with nvidia-smi (125–300 W on Titan XP).
	TDP, MinCap, MaxCap units.Power
}

// Validate reports a descriptive error if the spec is internally
// inconsistent.
func (g *GPUSpec) Validate() error {
	switch {
	case g.SMs <= 0 || g.LanesPerSM <= 0 || g.OpsPerCyclePerLane <= 0:
		return fmt.Errorf("gpu %q: invalid compute configuration", g.Name)
	case g.SMClockMin <= 0 || g.SMClockNom < g.SMClockMin:
		return fmt.Errorf("gpu %q: invalid SM clock range", g.Name)
	case g.SMClockStep <= 0:
		return fmt.Errorf("gpu %q: non-positive SM clock step", g.Name)
	case g.VMin <= 0 || g.VNom < g.VMin:
		return fmt.Errorf("gpu %q: invalid voltage range", g.Name)
	case g.IdleBoard < 0 || g.SMIdlePower < 0 || g.SMMaxDynPower <= 0:
		return fmt.Errorf("gpu %q: invalid power parameters", g.Name)
	case g.MinCap <= 0 || g.TDP < g.MinCap || g.MaxCap < g.TDP:
		return fmt.Errorf("gpu %q: invalid cap range", g.Name)
	}
	return g.Mem.Validate()
}

// Voltage returns the SM voltage at clock f, interpolated linearly.
func (g *GPUSpec) Voltage(f units.Frequency) float64 {
	t := units.InvLerp(g.SMClockMin.Hz(), g.SMClockNom.Hz(), f.Hz())
	return units.Lerp(g.VMin, g.VNom, t)
}

// SMPower returns the SM-domain power at clock f and activity act.
func (g *GPUSpec) SMPower(f units.Frequency, act float64) units.Power {
	f = f.Clamp(g.SMClockMin, g.SMClockNom)
	act = clamp01(act)
	v := g.Voltage(f)
	freqRatio := f.Hz() / g.SMClockNom.Hz()
	voltRatio := v / g.VNom
	return g.SMIdlePower + units.Power(g.SMMaxDynPower.Watts()*freqRatio*voltRatio*voltRatio*act)
}

// BoardPower returns the total board power at the given SM clock, memory
// clock and SM activity.
func (g *GPUSpec) BoardPower(smClock, memClock units.Frequency, act float64) units.Power {
	return g.IdleBoard + g.SMPower(smClock, act) + g.Mem.Power(memClock)
}

// PeakComputeRate returns the aggregate SM throughput at clock f.
func (g *GPUSpec) PeakComputeRate(f units.Frequency) units.Rate {
	f = f.Clamp(g.SMClockMin, g.SMClockNom)
	return units.Rate(float64(g.SMs*g.LanesPerSM) * g.OpsPerCyclePerLane * f.Hz())
}

// SMClocks returns the SM DVFS clocks in ascending order: SMClockAt(i)
// for every i below NumSMClocks.
func (g *GPUSpec) SMClocks() []units.Frequency {
	cs := make([]units.Frequency, g.NumSMClocks())
	for i := range cs {
		cs[i] = g.SMClockAt(i)
	}
	return cs
}

// NumSMClocks returns the number of SM DVFS bins: the grid points
// SMClockMin + k·SMClockStep up to half a step past SMClockNom, plus a
// final SMClockNom bin when the grid does not land on it.
func (g *GPUSpec) NumSMClocks() int {
	top := g.smTopBin()
	if g.SMClockMin+units.Frequency(top)*g.SMClockStep < g.SMClockNom {
		return top + 2
	}
	return top + 1
}

// SMClockAt returns the i-th SM DVFS bin, 0 <= i < NumSMClocks():
// SMClockMin + i·SMClockStep, clamped to SMClockNom. The closed form
// needs no table; for whole-Hz specs (every catalog card) it equals
// stepping up from SMClockMin by repeated addition, bit for bit.
func (g *GPUSpec) SMClockAt(i int) units.Frequency {
	f := g.SMClockMin + units.Frequency(i)*g.SMClockStep
	if f > g.SMClockNom {
		f = g.SMClockNom
	}
	return f
}

// smTopBin returns the largest k with SMClockMin + k·SMClockStep at or
// below SMClockNom + SMClockStep/2. The quotient estimate is corrected
// against the exact grid comparison, so rounding in the division cannot
// move the bin count.
func (g *GPUSpec) smTopBin() int {
	lim := g.SMClockNom + g.SMClockStep/2
	at := func(k int) units.Frequency { return g.SMClockMin + units.Frequency(k)*g.SMClockStep }
	k := int((g.SMClockNom - g.SMClockMin) / g.SMClockStep)
	for at(k+1) <= lim {
		k++
	}
	for k > 0 && at(k) > lim {
		k--
	}
	return k
}

// quantizeDown snaps f down to the grid base + k*step.
func quantizeDown(f, base units.Frequency, step units.Frequency) units.Frequency {
	if f <= base {
		return base
	}
	k := int((f - base) / step)
	return base + units.Frequency(k)*step
}
