package rapl

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/hw"
	"repro/internal/units"
)

// Domain identifies a RAPL power domain on the emulated node.
type Domain int

// The two domains the paper caps: the processor package(s) and DRAM.
const (
	DomainPackage Domain = iota
	DomainDRAM
)

// String returns "package" or "dram".
func (d Domain) String() string {
	switch d {
	case DomainPackage:
		return "package"
	case DomainDRAM:
		return "dram"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// PackageState is the processor operating state the actuator selected to
// honor the package cap: a P-state frequency and a T-state duty cycle.
type PackageState struct {
	Freq units.Frequency
	Duty float64
	// Throttled reports whether T-states (clock throttling) are engaged —
	// the boundary between the paper's scenarios II and IV.
	Throttled bool
	// AtFloor reports whether even the deepest throttle state exceeds the
	// cap, so the package runs at its hardware floor and the cap is not
	// respected (the paper's scenario VI).
	AtFloor bool
}

// Controller emulates the RAPL control loop for one node: it owns the MSR
// register file, exposes cap programming in watts, and actuates processor
// and DRAM states to meet the programmed caps.
type Controller struct {
	cpu  *hw.CPUSpec
	dram *hw.DRAMSpec
	msrs *RegisterFile
	// bins is cpu's P-state ladder (hw.CPUSpec.PStateBins), read and
	// never written.
	bins []hw.Bin
	// fit is the number of P-states the last package actuation found
	// under the cap: the next search checks it first (see
	// actuateBin). Atomic, so actuating one controller from several
	// goroutines stays race-free; any value is only a guess.
	fit atomic.Int32
}

// NewController returns a controller for the given CPU-node component
// specs. It reads cpu's P-state ladder (hw.CPUSpec.PStateBins): the
// shared ladder, built once with the catalog, when cpu is a catalog
// entry, else one built for this controller.
func NewController(cpu *hw.CPUSpec, dram *hw.DRAMSpec) *Controller {
	return &Controller{cpu: cpu, dram: dram, msrs: NewRegisterFile(), bins: cpu.PStateBins()}
}

// MSRs exposes the emulated register file (for tools that want the
// raw-MSR view, mirroring how real power managers program RAPL).
func (c *Controller) MSRs() *RegisterFile { return c.msrs }

// SetLimit programs a power cap on a domain with the default 1 s
// averaging window. A zero or negative cap disables the limit.
func (c *Controller) SetLimit(d Domain, cap units.Power) error {
	return c.SetLimitWindow(d, cap, time.Second)
}

// MaxLimit bounds the caps a power-limit register holds: its power
// field counts up to 0x7FFF units of PowerUnit and a cap truncates to
// whole units, so every cap below MaxLimit (4096 W) fits.
const MaxLimit units.Power = (powerMask + 1) * PowerUnit

// ErrLimitOutOfRange is the sentinel for caps the power-limit register
// cannot hold. Match with errors.Is; the concrete error is a
// *LimitRangeError.
var ErrLimitOutOfRange = errors.New("power limit outside the register's range")

// LimitRangeError reports a cap SetLimitWindow refused: NaN, +Inf, or
// at or above MaxLimit. EncodeLimit would wrap such a cap into the
// power field, mostly as a 0 W enabled limit, and the domain would run
// at its floor instead of being capped as asked.
type LimitRangeError struct {
	// Domain is the domain the cap was meant for.
	Domain Domain
	// Cap is the refused cap.
	Cap units.Power
}

// Error names the domain, the cap and the register's range.
func (e *LimitRangeError) Error() string {
	return fmt.Sprintf("rapl: %v power limit %g W outside the register's range (below %g W; zero or negative disables the limit)",
		e.Domain, e.Cap.Watts(), MaxLimit.Watts())
}

// Unwrap makes errors.Is(err, ErrLimitOutOfRange) work.
func (e *LimitRangeError) Unwrap() error { return ErrLimitOutOfRange }

// SetLimitWindow programs a power cap with an explicit averaging window.
// A zero or negative cap (−Inf included) disables the limit; a cap the
// register cannot hold (NaN, +Inf, at or above MaxLimit) is refused
// with a *LimitRangeError and leaves the register unchanged.
func (c *Controller) SetLimitWindow(d Domain, cap units.Power, window time.Duration) error {
	addr := MSRPkgPowerLimit
	if d == DomainDRAM {
		addr = MSRDramPowerLimit
	}
	if cap <= 0 {
		return c.msrs.Write(addr, 0) // disabled
	}
	if !(cap < MaxLimit) {
		return &LimitRangeError{Domain: d, Cap: cap}
	}
	return c.msrs.Write(addr, EncodeLimit(cap.Watts(), window.Seconds()))
}

// Limit returns the programmed cap for a domain and whether limiting is
// enabled.
func (c *Controller) Limit(d Domain) (units.Power, bool) {
	addr := MSRPkgPowerLimit
	if d == DomainDRAM {
		addr = MSRDramPowerLimit
	}
	reg, err := c.msrs.Read(addr)
	if err != nil {
		return 0, false
	}
	w, enabled := decodePower(reg)
	return units.Power(w), enabled
}

// ActuatePackage selects the processor operating state for the programmed
// package cap, given the workload's current activity factor. It follows
// the mechanism ordering the paper describes in Section 3.3: run at the
// highest P-state that fits; if even the lowest P-state exceeds the cap,
// engage T-state clock throttling; if the deepest throttle still exceeds
// the cap, run at the floor regardless (the cap is not respected).
//
// The highest fitting P-state is found by binary search over the
// controller's P-state ladder, not by scanning it down. Package power
// is non-decreasing in frequency (VNom >= VMin, every term is a
// non-negative product of monotone factors, and correctly rounded
// arithmetic preserves order), so the P-states that fit form a prefix
// of the ladder and both find the same state. The fit predicate is
// written as the scan wrote it, so a NaN activity selects the same
// state too.
func (c *Controller) ActuatePackage(act float64) PackageState {
	cap, enabled := c.Limit(DomainPackage)
	s, _ := c.ActuateBin(cap, enabled, act)
	return s
}

// ActuateBin is ActuatePackage under the package limit (cap, enabled)
// as Limit(DomainPackage) reports it, and also returns the state's
// index below NumPStates+NumDuties: i for P-state i unthrottled (a
// disabled cap runs the top one), NumPStates−1+j for duty cycle j at
// FMin, and NumPStates+NumDuties−1 for the floor. Equal indices mean
// equal frequency and duty, so a caller can table what it derives from
// those two per index. Taking the limit as arguments lets a caller that
// writes no register between actuations, such as one fixed-point
// solve, read and decode the register once instead of on every pass.
func (c *Controller) ActuateBin(cap units.Power, enabled bool, act float64) (PackageState, int) {
	if !enabled {
		return PackageState{Freq: c.cpu.FNom, Duty: 1}, len(c.bins) - 1
	}
	return c.actuateBin(cap, act)
}

// actuateBin is ActuateBin for an enabled package cap.
//
// Because the fitting P-states form a prefix, the number that fit is
// the one h with P-state h−1 fitting (or h = 0) and P-state h not (or h
// = NumPStates). The search checks the last actuation's count first:
// at most two power-model evaluations instead of the binary search's
// ⌈log₂(NumPStates+1)⌉, and the answer is exact whenever the check
// passes, since the boundary is unique. Between the passes of one
// fixed-point solve the activity moves little and the count rarely
// does. A failed check still tells on which side the boundary lies:
// P-state h−1 not fitting puts it below, P-state h fitting above, and
// the search runs on that side only. A NaN activity fits no P-state
// either way.
func (c *Controller) actuateBin(cap units.Power, act float64) (PackageState, int) {
	cpu := c.cpu
	fits := func(i int) bool { return cpu.PowerAt(c.bins[i].Coef, 1, act) <= cap }
	// Highest P-state under the cap, no throttling.
	n := len(c.bins)
	fit := int(c.fit.Load())
	lo, hi := 0, n // the count lies in [lo, hi]
	switch {
	case fit < 0 || fit > n:
	case fit > 0 && !fits(fit-1):
		hi = fit - 1
	case fit < n && fits(fit):
		lo = fit + 1
	default:
		hi = -1 // the check passed
	}
	if hi >= lo {
		fit = lo + sort.Search(hi-lo, func(i int) bool { return !fits(lo + i) })
		c.fit.Store(int32(fit))
	}
	if fit > 0 {
		return PackageState{Freq: c.bins[fit-1].Freq, Duty: 1}, fit - 1
	}
	// Lowest P-state still over the cap: engage T-states at FMin.
	floor := c.bins[0].Coef
	for i := 1; i < cpu.NumDuties(); i++ {
		if duty := cpu.DutyAt(i); cpu.PowerAt(floor, duty, act) <= cap {
			return PackageState{Freq: cpu.FMin, Duty: duty, Throttled: true}, n - 1 + i
		}
	}
	// Even the deepest throttle exceeds the cap: hardware floor.
	return PackageState{
		Freq: cpu.FMin, Duty: cpu.MinDuty,
		Throttled: true, AtFloor: true,
	}, n - 1 + cpu.NumDuties()
}

// PackagePower returns the package power drawn in state s at activity
// act.
func (c *Controller) PackagePower(s PackageState, act float64) units.Power {
	return c.cpu.Power(s.Freq, s.Duty, act)
}

// DRAMBandwidthCeiling returns the bandwidth ceiling DRAM throttling
// imposes for the programmed DRAM cap and the workload's random-access
// fraction. With no cap programmed, the ceiling is the physical peak.
func (c *Controller) DRAMBandwidthCeiling(randomFrac float64) units.Bandwidth {
	cap, enabled := c.Limit(DomainDRAM)
	if !enabled {
		return c.dram.PeakBandwidth()
	}
	return c.dram.BandwidthForPower(cap, randomFrac)
}

// DRAMPower returns the DRAM power drawn when moving bw with the given
// random fraction; it never drops below the background floor, so low caps
// are not respected (the paper's footnote on scenario V).
func (c *Controller) DRAMPower(bw units.Bandwidth, randomFrac float64) units.Power {
	return c.dram.Power(bw, randomFrac)
}

// AccumulateEnergy advances the 32-bit wrapping energy counters by the
// given power over dt, for tools that read MSR_*_ENERGY_STATUS.
func (c *Controller) AccumulateEnergy(pkg, dram units.Power, dt time.Duration) {
	c.msrs.addEnergy(MSRPkgEnergyStatus, pkg.Watts()*dt.Seconds())
	c.msrs.addEnergy(MSRDramEnergyStatus, dram.Watts()*dt.Seconds())
}

// Energy returns the accumulated energy for a domain as counted by the
// wrapping MSR counter.
func (c *Controller) Energy(d Domain) units.Energy {
	addr := MSRPkgEnergyStatus
	if d == DomainDRAM {
		addr = MSRDramEnergyStatus
	}
	reg, err := c.msrs.Read(addr)
	if err != nil {
		return 0
	}
	return units.Energy(EnergyJoules(reg))
}
