// Package nvgov emulates the Nvidia driver's power-management surface as
// the paper uses it: a board power cap programmed through nvidia-smi
// (clamped to the card's settable range) and SM/memory clock offsets
// programmed through nvidia-settings.
//
// The governor implements the behaviour the paper observes in Section 4:
// the board cap is enforced by DVFS-throttling the SM clock, so a power
// budget left unused by the memory (e.g. when the memory clock is lowered)
// is automatically reclaimed by the SMs — unlike host RAPL, where each
// domain's unused budget is simply wasted. The default driver policy runs
// the memory at its nominal clock regardless of cap or application, which
// is exactly the obliviousness COORD exploits (paper Section 6.3).
package nvgov

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/hw"
	"repro/internal/units"
)

// ErrCapOutOfRange is the sentinel for power caps outside the card's
// settable range. Match with errors.Is; the concrete error is a
// *CapRangeError carrying the offending cap and the valid range.
var ErrCapOutOfRange = errors.New("power cap outside settable range")

// CapRangeError reports a requested board power cap that the card
// cannot enforce. On Titan-era hardware the floor sits well below any
// budget coordination produces, but H100-class cards refuse caps below
// 200 W, so small coordination budgets must surface this rejection
// instead of being silently clamped to a cap the budget cannot fund.
type CapRangeError struct {
	// Cap is the rejected power limit.
	Cap units.Power
	// Min and Max bound the card's settable range.
	Min, Max units.Power
}

// Error formats the rejection like the nvidia-smi diagnostic.
func (e *CapRangeError) Error() string {
	return fmt.Sprintf("nvgov: power cap %v outside settable range [%v, %v]",
		e.Cap, e.Min, e.Max)
}

// Unwrap makes errors.Is(err, ErrCapOutOfRange) work.
func (e *CapRangeError) Unwrap() error { return ErrCapOutOfRange }

// CheckCap reports whether the card can enforce cap, returning a
// *CapRangeError (wrapping ErrCapOutOfRange) if not; a NaN cap is
// outside every range. Callers that plan caps without instantiating a
// governor use this for early rejection.
func CheckCap(gpu *hw.GPUSpec, cap units.Power) error {
	if !(cap >= gpu.MinCap && cap <= gpu.MaxCap) {
		return &CapRangeError{Cap: cap, Min: gpu.MinCap, Max: gpu.MaxCap}
	}
	return nil
}

// Settings mirrors the user-visible controls: the nvidia-smi power cap
// and the nvidia-settings clock offsets.
type Settings struct {
	// PowerCap is the board power limit.
	PowerCap units.Power
	// SMOffset shifts the maximum SM boost clock relative to nominal
	// (negative slows the card down).
	SMOffset units.Frequency
	// MemOffset shifts the memory clock relative to nominal.
	MemOffset units.Frequency
}

// State is the operating state the governor selected.
type State struct {
	// SMClock and MemClock are the running clocks.
	SMClock, MemClock units.Frequency
	// PowerLimited reports whether the SM clock was lowered below its
	// offset-adjusted maximum to honor the board cap.
	PowerLimited bool
	// AtFloor reports whether even the lowest SM clock exceeds the cap
	// (the hardware disallows caps low enough for this to persist, but
	// the flag is reported for completeness).
	AtFloor bool
}

// Governor emulates the board power-management firmware for one card.
type Governor struct {
	gpu      *hw.GPUSpec
	settings Settings
	// bins is gpu's SM clock ladder (hw.GPUSpec.SMClockBins) when the
	// governor was built with one, nil when it reads the closed forms.
	bins []hw.Bin
	// below is the number of SM bins at or below smMaxClock and
	// memPower the memory clock's power. Both follow from the settings
	// alone, so the offset setters derive them and Actuate only reads
	// them. Zero stands for what New programs, zero offsets: every bin,
	// and the nominal clock's power. That keeps New small enough to
	// inline, so a one-shot run's governor stays off the heap.
	below    int
	memPower units.Power
	// nbins is gpu.NumSMClocks without a ladder, stored by the first
	// call that needs it (0 until then), so a governor at zero offsets
	// does not redo the bin count's grid search on every actuation.
	// Atomic, like fit.
	nbins atomic.Int32
	// fit is the number of SM bins the last actuation found under the
	// cap: the next search checks it first (see Actuate). Atomic, so
	// concurrent Actuate calls stay race-free; any value is only a
	// guess.
	fit atomic.Int32
}

// New returns a governor for the card with default settings: TDP cap,
// zero offsets (memory at nominal clock — the default driver policy).
func New(gpu *hw.GPUSpec) *Governor {
	return NewBins(gpu, nil)
}

// NewBins is New with gpu's SM clock ladder tabled in bins, as
// gpu.SMClockBins() builds it (nil reads the closed forms): the states
// it selects are the same bit for bit. The governor reads bins and
// never writes them, so every governor of one card may share one
// ladder.
func NewBins(gpu *hw.GPUSpec, bins []hw.Bin) *Governor {
	return &Governor{gpu: gpu, settings: Settings{PowerCap: gpu.TDP}, bins: bins}
}

// numSMClocks is gpu.NumSMClocks: the ladder's length when there is
// one, else the count the first call stored in nbins.
func (g *Governor) numSMClocks() int {
	if g.bins != nil {
		return len(g.bins)
	}
	n := int(g.nbins.Load())
	if n == 0 {
		n = g.gpu.NumSMClocks()
		g.nbins.Store(int32(n))
	}
	return n
}

// smClock returns SM bin i's clock, from the ladder when there is one.
func (g *Governor) smClock(i int) units.Frequency {
	if g.bins != nil {
		return g.bins[i].Freq
	}
	return g.gpu.SMClockAt(i)
}

// boardPower returns the board power with the SMs at bin i and the
// memory drawing memPower, at activity act; from the ladder when there
// is one.
func (g *Governor) boardPower(i int, memPower units.Power, act float64) units.Power {
	if g.bins != nil {
		return g.gpu.BoardPowerAt(g.bins[i].Coef, memPower, act)
	}
	return g.gpu.BoardPowerAt(g.gpu.DynCoef(g.gpu.SMClockAt(i)), memPower, act)
}

// smChanged re-derives below after the SM offset changed.
func (g *Governor) smChanged() {
	maxSM := g.smMaxClock()
	g.below = sort.Search(g.numSMClocks(), func(i int) bool { return g.smClock(i) > maxSM })
}

// memChanged re-derives memPower after the memory offset changed.
func (g *Governor) memChanged() {
	g.memPower = g.gpu.Mem.Power(g.MemClock())
}

// GPU returns the card spec the governor manages.
func (g *Governor) GPU() *hw.GPUSpec { return g.gpu }

// Settings returns the current control settings.
func (g *Governor) Settings() Settings { return g.settings }

// SetPowerCap programs the board power limit. Like nvidia-smi, values
// outside the card's settable range are rejected — with a typed
// *CapRangeError (errors.Is-matchable against ErrCapOutOfRange) so
// coordination layers can distinguish an unenforceable cap from other
// actuation failures rather than silently clamping.
func (g *Governor) SetPowerCap(cap units.Power) error {
	if err := CheckCap(g.gpu, cap); err != nil {
		return err
	}
	g.settings.PowerCap = cap
	return nil
}

// SetMemOffset programs the memory clock offset. The resulting clock is
// clamped to the card's settable range, as the driver does.
func (g *Governor) SetMemOffset(off units.Frequency) {
	g.settings.MemOffset = off
	g.memChanged()
}

// SetSMOffset programs the SM boost clock offset.
func (g *Governor) SetSMOffset(off units.Frequency) {
	g.settings.SMOffset = off
	g.smChanged()
}

// SetMemClock programs the offset so the memory runs at the requested
// clock (clamped to the settable range) — a convenience wrapper COORD
// uses to target a memory power budget.
func (g *Governor) SetMemClock(f units.Frequency) {
	f = f.Clamp(g.gpu.Mem.ClockMin, g.gpu.Mem.ClockMax)
	g.SetMemOffset(f - g.gpu.Mem.ClockNom)
}

// MemClock returns the memory clock the current offset selects.
func (g *Governor) MemClock() units.Frequency {
	return (g.gpu.Mem.ClockNom + g.settings.MemOffset).
		Clamp(g.gpu.Mem.ClockMin, g.gpu.Mem.ClockMax)
}

// smMaxClock returns the highest SM clock the offset allows.
func (g *Governor) smMaxClock() units.Frequency {
	return (g.gpu.SMClockNom + g.settings.SMOffset).
		Clamp(g.gpu.SMClockMin, g.gpu.SMClockNom)
}

// Actuate selects the running clocks for the current settings and the
// workload's SM activity factor: the memory runs at its offset-selected
// clock; the SMs run at the highest DVFS bin, at or below the
// offset-adjusted maximum, whose board power fits under the cap. Because
// the cap constrains the board total, lowering the memory clock frees
// power that the SMs reclaim — the automatic cross-component shifting the
// paper highlights as unique to GPUs.
//
// The bin is found by binary search over the SM clock grid
// (hw.GPUSpec.SMClockAt, or the governor's ladder), not by scanning
// down a clock table. The search returns exactly the bin a top-down
// scan would: bins ascend, and BoardPower is non-decreasing in the SM
// clock (VNom >= VMin, every term is a non-negative product of monotone
// factors, and correctly rounded arithmetic preserves order), so the
// bins that fit form a prefix of the grid. Both predicates are written
// as the scan wrote them, so NaN settings and activities select the
// same state too.
//
// The search is warm-started as rapl's package actuator is: since the
// fitting bins form a prefix of the bins at or below maxSM, the fit
// count is the one h with bin h−1 fitting (or h = 0) and bin h not (or
// h = below). The last actuation's count is checked first, with at most
// two BoardPower evaluations instead of ⌈log₂(below+1)⌉. When the check
// fails — the activity moved the boundary, or the settings moved below
// under it — the failed probe tells on which side of it the boundary
// lies, and the search runs on that side only.
func (g *Governor) Actuate(act float64) State {
	s, _ := g.ActuateBin(act)
	return s
}

// ActuateBin is Actuate that also returns the state's SM bin index
// (hw.GPUSpec.SMClockAt): the state runs bin i, or bin 0 at the floor.
// Within one memory clock, equal indices mean equal clocks.
func (g *Governor) ActuateBin(act float64) (State, int) {
	mem := g.MemClock()
	cap := g.settings.PowerCap
	gpu := g.gpu
	memPower := g.memPower
	if memPower == 0 {
		memPower = gpu.Mem.Power(mem)
	}
	fits := func(i int) bool { return g.boardPower(i, memPower, act) <= cap }

	// below: the bins at or below maxSM; fit: those of them that fit.
	below := g.below
	if below == 0 {
		below = g.numSMClocks()
	}
	fit := int(g.fit.Load())
	lo, hi := 0, below // the count lies in [lo, hi]
	switch {
	case fit < 0 || fit > below:
	case fit > 0 && !fits(fit-1):
		hi = fit - 1
	case fit < below && fits(fit):
		lo = fit + 1
	default:
		hi = -1 // the check passed
	}
	if hi >= lo {
		fit = lo + sort.Search(hi-lo, func(i int) bool { return !fits(lo + i) })
		g.fit.Store(int32(fit))
	}
	if fit == 0 {
		return State{SMClock: gpu.SMClockMin, MemClock: mem, PowerLimited: true, AtFloor: true}, 0
	}
	f := g.smClock(fit - 1)
	return State{SMClock: f, MemClock: mem, PowerLimited: f < g.smMaxClock()}, fit - 1
}

// BoardPower returns the board power in state s at SM activity act.
func (g *Governor) BoardPower(s State, act float64) units.Power {
	return g.gpu.BoardPower(s.SMClock, s.MemClock, act)
}

// EstimatedMemPower returns the empirical-model memory power for the
// currently selected memory clock — the estimate the paper's Figure 7
// x-axis uses.
func (g *Governor) EstimatedMemPower() units.Power {
	return g.gpu.Mem.Power(g.MemClock())
}
