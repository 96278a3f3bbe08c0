package hw

import (
	"math"
	"testing"

	"repro/internal/units"
)

// refPower and refSMPower are the power models as first written, one
// expression per term: the split into DynCoef and PowerAt must not move
// a bit. The products are rounded explicitly, as in PowerAt, so no FMA
// architecture fuses them into the adds that follow.
func refPower(c *CPUSpec, f units.Frequency, duty, act float64) units.Power {
	f = f.Clamp(c.FMin, c.FNom)
	duty = clamp01Range(duty, c.MinDuty, 1)
	act = clamp01(act)
	v := c.Voltage(f)
	freqRatio := f.Hz() / c.FNom.Hz()
	voltRatio := v / c.VNom
	dyn := float64(c.MaxDynPower.Watts() * freqRatio * voltRatio * voltRatio * act)
	return c.IdlePower + units.Power((c.UncorePower.Watts()+dyn)*duty)
}

func refSMPower(g *GPUSpec, f units.Frequency, act float64) units.Power {
	f = f.Clamp(g.SMClockMin, g.SMClockNom)
	act = clamp01(act)
	v := g.Voltage(f)
	freqRatio := f.Hz() / g.SMClockNom.Hz()
	voltRatio := v / g.VNom
	return g.SMIdlePower + units.Power(float64(g.SMMaxDynPower.Watts()*freqRatio*voltRatio*voltRatio*act))
}

// FuzzLadderPower holds the tabled ladders to the closed forms bit for
// bit: for every bin of every catalog CPU and GPU, the bin's frequency is
// PStateAt/SMClockAt, PowerAt on its coefficient is Power and refPower
// at every duty cycle, SMPowerAt is SMPower and refSMPower, and
// BoardPowerAt is BoardPower at every settable memory clock, at the
// fuzzed activity: values in [0,1], NaN, ±Inf and out-of-range values
// the power models clamp.
func FuzzLadderPower(f *testing.F) {
	for _, act := range []float64{0, 1, 0.5, 0.3, 1e-300, math.Nextafter(1, 0), math.Copysign(0, -1),
		math.NaN(), math.Inf(1), math.Inf(-1), -0.25, 1.5} {
		f.Add(act)
	}
	f.Fuzz(func(t *testing.T, act float64) {
		same := func(a, b units.Power) bool { return math.Float64bits(a.Watts()) == math.Float64bits(b.Watts()) }
		for _, p := range AllPlatforms() {
			if c := p.CPU; c != nil {
				bins := c.PStateBins()
				if len(bins) != c.NumPStates() {
					t.Fatalf("%s: %d P-state bins, NumPStates %d", c.Name, len(bins), c.NumPStates())
				}
				for i, b := range bins {
					if b.Freq != c.PStateAt(i) {
						t.Fatalf("%s: bin %d at %v, PStateAt %v", c.Name, i, b.Freq, c.PStateAt(i))
					}
					for j := range c.NumDuties() {
						duty := c.DutyAt(j)
						got, want := c.PowerAt(b.Coef, duty, act), refPower(c, b.Freq, duty, act)
						if closed := c.Power(b.Freq, duty, act); !same(got, want) || !same(closed, want) {
							t.Fatalf("%s: bin %d, duty %v, act %v: PowerAt %#x, Power %#x, first form %#x", c.Name, i, duty, act,
								math.Float64bits(got.Watts()), math.Float64bits(closed.Watts()), math.Float64bits(want.Watts()))
						}
					}
				}
			}
			if g := p.GPU; g != nil {
				bins := g.SMClockBins()
				if len(bins) != g.NumSMClocks() {
					t.Fatalf("%s: %d SM bins, NumSMClocks %d", g.Name, len(bins), g.NumSMClocks())
				}
				mems := g.Mem.Clocks()
				for i, b := range bins {
					if b.Freq != g.SMClockAt(i) {
						t.Fatalf("%s: bin %d at %v, SMClockAt %v", g.Name, i, b.Freq, g.SMClockAt(i))
					}
					got, want := g.SMPowerAt(b.Coef, act), refSMPower(g, b.Freq, act)
					if closed := g.SMPower(b.Freq, act); !same(got, want) || !same(closed, want) {
						t.Fatalf("%s: bin %d, act %v: SMPowerAt %#x, SMPower %#x, first form %#x", g.Name, i, act,
							math.Float64bits(got.Watts()), math.Float64bits(closed.Watts()), math.Float64bits(want.Watts()))
					}
					for _, m := range mems {
						if got, want := g.BoardPowerAt(b.Coef, g.Mem.Power(m), act), g.BoardPower(b.Freq, m, act); !same(got, want) {
							t.Fatalf("%s: bin %d, memory clock %v, act %v: BoardPowerAt %v, BoardPower %v",
								g.Name, i, m, act, got, want)
						}
					}
				}
			}
		}
	})
}
