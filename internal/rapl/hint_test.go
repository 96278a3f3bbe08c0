package rapl

import (
	"errors"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/units"
)

// actuateUnder is ActuatePackage for an enabled package cap: the
// state of actuateBin.
func (c *Controller) actuateUnder(cap units.Power, act float64) PackageState {
	s, _ := c.actuateBin(cap, act)
	return s
}

// coldActuate is the package actuator without the warm start: a full
// binary search over the P-states on every call, then the T-state walk.
func coldActuate(cpu *hw.CPUSpec, cap units.Power, act float64) PackageState {
	fit := sort.Search(cpu.NumPStates(), func(i int) bool {
		return !(cpu.Power(cpu.PStateAt(i), 1, act) <= cap)
	})
	if fit > 0 {
		return PackageState{Freq: cpu.PStateAt(fit - 1), Duty: 1}
	}
	for i := 1; i < cpu.NumDuties(); i++ {
		if duty := cpu.DutyAt(i); cpu.Power(cpu.FMin, duty, act) <= cap {
			return PackageState{Freq: cpu.FMin, Duty: duty, Throttled: true}
		}
	}
	return PackageState{Freq: cpu.FMin, Duty: cpu.MinDuty, Throttled: true, AtFloor: true}
}

// FuzzActuatorHint holds the warm-started package search to the cold
// one: from any starting hint, over a sequence of (cap, activity)
// steps on one controller, every actuation equals coldActuate. Caps sit
// on a grid past both ends of the package range, at every P-state's
// and T-state's power ±1 ulp and ±1 register power unit, at register-
// programmed values and at hostile values; activities span [−0.25,
// 1.25] plus NaN and ±Inf.
func FuzzActuatorHint(f *testing.F) {
	for hint := range 20 {
		for mode := range 6 {
			f.Add([]byte{byte(hint % 3), byte(hint), byte(mode), byte(7 * hint), byte(40 * mode),
				byte(mode + 1), byte(hint + mode), byte(13 * mode), byte(255 - hint)})
		}
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for range 64 {
		b := make([]byte, 32)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		f.Add(b)
	}
	var cpus []*hw.CPUSpec
	for _, p := range hw.AllPlatforms() {
		if p.Kind == hw.KindCPU {
			cpus = append(cpus, p.CPU)
		}
	}
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5, 1e300}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		cpu := cpus[next()%len(cpus)]
		c := NewController(cpu, nil)
		c.fit.Store(int32(next()))
		for len(data) > 0 {
			mode, idx, a := next(), next(), next()
			act := -0.25 + 1.5*float64(a)/255
			if a >= 252 {
				act = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}[a-252]
			}
			nudge := func(x units.Power) units.Power {
				switch idx % 5 {
				case 0:
					return x - PowerUnit
				case 1:
					return units.Power(math.Nextafter(x.Watts(), math.Inf(-1)))
				case 3:
					return units.Power(math.Nextafter(x.Watts(), math.Inf(1)))
				case 4:
					return x + PowerUnit
				}
				return x
			}
			var cap units.Power
			switch mode % 6 {
			case 0: // a grid past both ends of the package range
				cap = units.Power(float64(idx) / 200 * (cpu.MaxPower(1) + 20).Watts())
			case 1: // a P-state's power
				cap = nudge(cpu.Power(cpu.PStateAt(idx/5%cpu.NumPStates()), 1, act))
			case 2: // a T-state's power at the lowest P-state
				cap = nudge(cpu.Power(cpu.FMin, cpu.DutyAt(idx/5%cpu.NumDuties()), act))
			case 3: // the grid as the limit register holds it
				if err := c.SetLimit(DomainPackage, units.Power(idx)); err != nil {
					t.Fatal(err)
				}
				cap, _ = c.Limit(DomainPackage)
			case 4: // the hardware floor, at and below
				cap = nudge(cpu.MinActivePower(act) * units.Power(1-float64(idx%4)/8))
			case 5:
				cap = units.Power(hostile[idx%len(hostile)])
			}
			if got, want := c.actuateUnder(cap, act), coldActuate(cpu, cap, act); got != want {
				t.Fatalf("%s: cap %v act %v: warm-started %+v, cold %+v", cpu.Name, cap, act, got, want)
			}
		}
	})
}

// TestSetLimitRejectsUnrepresentableCaps: NaN, +Inf and caps at or
// above MaxLimit are refused with a typed error and leave the register
// as it was; caps at or below zero, −Inf included, disable the limit;
// the largest cap below MaxLimit is programmed.
func TestSetLimitRejectsUnrepresentableCaps(t *testing.T) {
	c := newIvyController()
	for _, d := range []Domain{DomainPackage, DomainDRAM} {
		if err := c.SetLimit(d, 100); err != nil {
			t.Fatal(err)
		}
		for _, cap := range []float64{math.NaN(), math.Inf(1), 1e300, MaxLimit.Watts(), 5000} {
			err := c.SetLimitWindow(d, units.Power(cap), time.Second)
			var lre *LimitRangeError
			if !errors.Is(err, ErrLimitOutOfRange) || !errors.As(err, &lre) {
				t.Fatalf("%v cap %v: error %v, want a *LimitRangeError", d, cap, err)
			}
			if lre.Domain != d || math.Float64bits(lre.Cap.Watts()) != math.Float64bits(cap) {
				t.Fatalf("%v cap %v: error names %v cap %v", d, cap, lre.Domain, lre.Cap)
			}
			if got, on := c.Limit(d); got != 100 || !on {
				t.Fatalf("%v cap %v: refused write changed the limit to %v (enabled %v)", d, cap, got, on)
			}
		}
		below := units.Power(math.Nextafter(MaxLimit.Watts(), 0))
		if err := c.SetLimit(d, below); err != nil {
			t.Fatalf("%v cap %v: %v", d, below, err)
		}
		if got, on := c.Limit(d); got != MaxLimit-PowerUnit || !on {
			t.Fatalf("%v cap %v programmed as %v (enabled %v)", d, below, got, on)
		}
		for _, cap := range []float64{0, -5, math.Inf(-1)} {
			if err := c.SetLimit(d, units.Power(cap)); err != nil {
				t.Fatalf("%v cap %v: %v", d, cap, err)
			}
			if _, on := c.Limit(d); on {
				t.Fatalf("%v cap %v did not disable the limit", d, cap)
			}
		}
	}
}
