package nvgov

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"repro/internal/hw"
	"repro/internal/units"
)

// coldActuate is the governor without the warm start: full binary
// searches for the bins at or below the SM limit and for those that
// fit, on every call.
func coldActuate(g *Governor, act float64) State {
	mem := g.MemClock()
	maxSM := g.smMaxClock()
	cap := g.settings.PowerCap
	gpu := g.gpu
	below := sort.Search(gpu.NumSMClocks(), func(i int) bool {
		return gpu.SMClockAt(i) > maxSM
	})
	fit := sort.Search(below, func(i int) bool {
		return !(gpu.BoardPower(gpu.SMClockAt(i), mem, act) <= cap)
	})
	if fit == 0 {
		return State{SMClock: gpu.SMClockMin, MemClock: mem, PowerLimited: true, AtFloor: true}
	}
	f := gpu.SMClockAt(fit - 1)
	return State{SMClock: f, MemClock: mem, PowerLimited: f < maxSM}
}

// sameState is == with the clocks compared by their bits, so a NaN
// memory clock (a NaN offset) equals itself.
func sameState(a, b State) bool {
	return math.Float64bits(float64(a.SMClock)) == math.Float64bits(float64(b.SMClock)) &&
		math.Float64bits(float64(a.MemClock)) == math.Float64bits(float64(b.MemClock)) &&
		a.PowerLimited == b.PowerLimited && a.AtFloor == b.AtFloor
}

// FuzzActuatorHint holds the warm-started SM-bin search to the cold
// one: from any starting hint, over a sequence of steps on one
// governor that move the memory clock, the SM offset (both move the
// bins at or below the SM limit under the hint), the cap and the
// activity, every Actuate equals coldActuate. Caps sit on a grid past
// both ends of the settable range, at every SM bin's board power ±1
// ulp, at the settable floor and at hostile values; activities span
// [−0.25, 1.25] plus NaN and ±Inf.
func FuzzActuatorHint(f *testing.F) {
	for hint := range 20 {
		for mode := range 8 {
			f.Add([]byte{byte(hint % 4), byte(12 * hint), byte(mode), byte(7 * hint), byte(40 * mode),
				byte(mode + 3), byte(hint + mode), byte(13 * mode), byte(255 - hint),
				byte(mode + 5), byte(3 * hint), byte(31 * mode)})
		}
	}
	rng := rand.New(rand.NewPCG(7, 8))
	for range 64 {
		b := make([]byte, 40)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		f.Add(b)
	}
	var gpus []*hw.GPUSpec
	for _, p := range hw.AllPlatforms() {
		if p.Kind == hw.KindGPU {
			gpus = append(gpus, p.GPU)
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
		gpu := gpus[next()%len(gpus)]
		g := New(gpu)
		g.fit.Store(int32(next()))
		mems := []units.Frequency{gpu.Mem.ClockMin, gpu.Mem.ClockNom, gpu.Mem.ClockMax,
			gpu.Mem.ClockMin - units.Megahertz, (gpu.Mem.ClockMin + gpu.Mem.ClockMax) / 2}
		offsets := []units.Frequency{0, -100 * units.Megahertz, -500 * units.Megahertz,
			150 * units.Megahertz, -gpu.SMClockNom, units.Frequency(math.NaN())}
		for len(data) > 0 {
			mode, idx, a := next(), next(), next()
			act := -0.25 + 1.5*float64(a)/255
			if a >= 252 {
				act = []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0}[a-252]
			}
			nudge := func(x units.Power) units.Power {
				switch idx % 3 {
				case 0:
					return ulpBelow(x)
				case 2:
					return ulpAbove(x)
				}
				return x
			}
			switch mode % 8 {
			case 0: // the memory clock
				g.SetMemClock(mems[idx%len(mems)])
			case 1: // the SM offset
				g.SetSMOffset(offsets[idx%len(offsets)])
			case 2, 3: // a grid past both ends of the settable range
				g.settings.PowerCap = gpu.MinCap - 10 +
					units.Power(float64(idx)/240*(gpu.MaxCap-gpu.MinCap+20).Watts())
			case 4, 5: // an SM bin's board power at the running memory clock
				g.settings.PowerCap = nudge(gpu.BoardPower(gpu.SMClockAt(idx/3%gpu.NumSMClocks()), g.MemClock(), act))
			case 6: // the settable floor
				g.settings.PowerCap = nudge(gpu.MinCap)
			case 7:
				g.settings.PowerCap = units.Power(hostile[idx%len(hostile)])
			}
			if got, want := g.Actuate(act), coldActuate(g, act); !sameState(got, want) {
				t.Fatalf("%s: cap %v mem %v SM offset %v act %v: warm-started %+v, cold %+v",
					gpu.Name, g.settings.PowerCap, g.MemClock(), g.settings.SMOffset, act, got, want)
			}
		}
	})
}
