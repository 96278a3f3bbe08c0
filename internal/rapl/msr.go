// Package rapl emulates Intel's Running Average Power Limit interface for
// the simulator: the MSR-visible register surface (power limit and energy
// status registers with their fixed-point unit encodings), the actuation
// logic that picks a P-state, then a T-state, to keep a domain under its
// cap (the mechanism the paper's Section 3.3 uses to explain the
// allocation-scenario categories), and DRAM bandwidth throttling.
//
// The register encodings follow the Intel SDM Vol. 3B conventions: power
// in 1/8 W units, energy in ~15.3 uJ units, time in ~976 us units, with
// 32-bit wrap-around energy counters.
package rapl

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// Sentinel errors for MSR access faults, matchable with errors.Is.
var (
	// ErrUnimplementedMSR is returned when reading or writing an address
	// the emulation does not back (a real rdmsr/wrmsr would #GP).
	ErrUnimplementedMSR = errors.New("unimplemented MSR")
	// ErrReadOnlyMSR is returned when writing a read-only register.
	ErrReadOnlyMSR = errors.New("register is read-only")
)

// MSR addresses for the registers the emulation exposes, matching the
// Intel SDM assignments.
const (
	MSRRaplPowerUnit    uint32 = 0x606
	MSRPkgPowerLimit    uint32 = 0x610
	MSRPkgEnergyStatus  uint32 = 0x611
	MSRDramPowerLimit   uint32 = 0x618
	MSRDramEnergyStatus uint32 = 0x619
)

// Fixed-point unit scales encoded in MSR_RAPL_POWER_UNIT: power in 1/8 W,
// energy in 1/65536 J (~15.3 uJ), time in 1/1024 s (~976 us).
const (
	powerUnitBits  = 3  // 2^-3 W
	energyUnitBits = 16 // 2^-16 J
	timeUnitBits   = 10 // 2^-10 s
)

// PowerUnit is the wattage of one power-limit LSB.
const PowerUnit = 1.0 / (1 << powerUnitBits)

// EnergyUnit is the joules of one energy-counter LSB.
const EnergyUnit = 1.0 / (1 << energyUnitBits)

// TimeUnit is the seconds of one time-window LSB.
const TimeUnit = 1.0 / (1 << timeUnitBits)

// Bit layout of the power-limit registers (lower 32 bits; the package
// register has a second limit in the upper half which the emulation
// ignores, as the experiments only program limit #1).
const (
	limitEnableBit = 1 << 15
	limitClampBit  = 1 << 16
	powerMask      = 0x7FFF
	windowShift    = 17
	windowMask     = 0x7F
)

// RegisterFile is a concurrency-safe emulated MSR space. Only the five
// RAPL registers are backed; other addresses reject reads and writes,
// mirroring the #GP a real rdmsr/wrmsr of an unimplemented MSR raises.
// Each register is an atomic word rather than a map entry under a
// mutex: the simulator builds a controller per run, and either of
// those would move it to the heap.
type RegisterFile struct {
	powerUnit, pkgLimit, pkgEnergy, dramLimit, dramEnergy atomic.Uint64
}

// NewRegisterFile returns a register file with the RAPL unit register
// initialized to the standard unit encoding.
func NewRegisterFile() *RegisterFile {
	rf := &RegisterFile{}
	rf.powerUnit.Store(powerUnitBits | energyUnitBits<<8 | timeUnitBits<<16)
	return rf
}

// reg returns the backing word of the MSR at addr, nil when the
// emulation does not implement it.
func (rf *RegisterFile) reg(addr uint32) *atomic.Uint64 {
	switch addr {
	case MSRRaplPowerUnit:
		return &rf.powerUnit
	case MSRPkgPowerLimit:
		return &rf.pkgLimit
	case MSRPkgEnergyStatus:
		return &rf.pkgEnergy
	case MSRDramPowerLimit:
		return &rf.dramLimit
	case MSRDramEnergyStatus:
		return &rf.dramEnergy
	}
	return nil
}

// Read returns the value of the MSR at addr.
func (rf *RegisterFile) Read(addr uint32) (uint64, error) {
	r := rf.reg(addr)
	if r == nil {
		return 0, fmt.Errorf("rapl: rdmsr 0x%x: %w", addr, ErrUnimplementedMSR)
	}
	return r.Load(), nil
}

// Write stores value to the MSR at addr. The unit and energy status
// registers are read-only, as on real hardware.
func (rf *RegisterFile) Write(addr uint32, value uint64) error {
	switch addr {
	case MSRPkgPowerLimit, MSRDramPowerLimit:
		rf.reg(addr).Store(value)
		return nil
	case MSRRaplPowerUnit, MSRPkgEnergyStatus, MSRDramEnergyStatus:
		return fmt.Errorf("rapl: wrmsr 0x%x: %w", addr, ErrReadOnlyMSR)
	default:
		return fmt.Errorf("rapl: wrmsr 0x%x: %w", addr, ErrUnimplementedMSR)
	}
}

// addEnergy accumulates joules into a 32-bit wrapping energy counter.
func (rf *RegisterFile) addEnergy(addr uint32, joules float64) {
	if joules < 0 {
		return
	}
	ticks := uint64(joules / EnergyUnit)
	r := rf.reg(addr)
	for {
		old := r.Load()
		if r.CompareAndSwap(old, (old+ticks)&0xFFFFFFFF) {
			return
		}
	}
}

// EncodeLimit packs a power limit in watts and a time window in seconds
// into the register format (limit #1, enabled, clamped).
func EncodeLimit(watts, windowSeconds float64) uint64 {
	if watts < 0 {
		watts = 0
	}
	p := uint64(watts/PowerUnit) & powerMask
	// The window is encoded as (1 + y/4) * 2^x time units; the emulation
	// uses the closest pure power of two (y=0).
	x := uint64(0)
	if windowSeconds > 0 {
		ticks := windowSeconds / TimeUnit
		if ticks > 1 {
			x = uint64(math.Round(math.Log2(ticks)))
		}
		if x > 31 {
			x = 31
		}
	}
	return p | limitEnableBit | limitClampBit | (x&windowMask)<<windowShift
}

// DecodeLimit unpacks a power-limit register into watts, window seconds,
// and the enable flag.
func DecodeLimit(reg uint64) (watts, windowSeconds float64, enabled bool) {
	watts, enabled = decodePower(reg)
	x := (reg >> windowShift) & windowMask
	windowSeconds = math.Exp2(float64(x)) * TimeUnit
	return watts, windowSeconds, enabled
}

// decodePower is DecodeLimit without the window: the watts and the
// enable flag, the part the actuator reads on every control step.
func decodePower(reg uint64) (watts float64, enabled bool) {
	return float64(reg&powerMask) * PowerUnit, reg&limitEnableBit != 0
}

// EnergyJoules converts a raw energy-status register value to joules.
func EnergyJoules(reg uint64) float64 {
	return float64(reg&0xFFFFFFFF) * EnergyUnit
}
