package nvgov

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/units"
)

// scanActuate is the reference governor: walk the SM clock table from
// the top and stop at the first bin at or below the offset-adjusted
// maximum whose board power fits under the cap.
func scanActuate(g *Governor, clocks []units.Frequency, act float64) State {
	mem := g.MemClock()
	maxSM := g.smMaxClock()
	cap := g.settings.PowerCap
	for i := len(clocks) - 1; i >= 0; i-- {
		f := clocks[i]
		if f > maxSM {
			continue
		}
		if g.gpu.BoardPower(f, mem, act) <= cap {
			return State{SMClock: f, MemClock: mem, PowerLimited: f < maxSM}
		}
	}
	return State{SMClock: g.gpu.SMClockMin, MemClock: mem, PowerLimited: true, AtFloor: true}
}

// TestActuateEqualsTopDownScan: the binary search selects exactly the
// state of the top-down scan on every catalog GPU, over a dense grid of
// caps (including caps below the settable floor, where even the lowest
// bin does not fit) × every memory clock × SM offsets × activities, and
// at caps one ulp either side of every bin's board power, where the
// fit predicate flips.
func TestActuateEqualsTopDownScan(t *testing.T) {
	acts := []float64{-0.25, 0, 0.1, 0.36, 0.5, 0.75, 1, 1.5, math.NaN()}
	offsets := []units.Frequency{0, -100 * units.Megahertz, -500 * units.Megahertz}
	checked := 0
	for _, p := range hw.AllPlatforms() {
		if p.Kind != hw.KindGPU {
			continue
		}
		gpu := p.GPU
		g := New(gpu)
		clocks := gpu.SMClocks()
		check := func(cap units.Power, act float64) {
			g.settings.PowerCap = cap
			got, want := g.Actuate(act), scanActuate(g, clocks, act)
			if got != want {
				t.Fatalf("%s: cap %v mem %v SM offset %v act %v: Actuate = %+v, scan = %+v",
					p.Name, cap, g.MemClock(), g.settings.SMOffset, act, got, want)
			}
			checked++
		}
		for _, mem := range gpu.Mem.Clocks() {
			g.SetMemClock(mem)
			for _, off := range offsets {
				g.SetSMOffset(off)
				for _, act := range acts {
					for cap := units.Power(0); cap <= gpu.MaxCap+20; cap += 5 {
						check(cap, act)
					}
					for i := 0; i < gpu.NumSMClocks(); i++ {
						edge := gpu.BoardPower(gpu.SMClockAt(i), mem, act)
						check(edge, act)
						check(ulpBelow(edge), act)
						check(ulpAbove(edge), act)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no GPU platform in the catalog")
	}
}

// TestActuateAllocationFree: selecting a state builds no clock table.
func TestActuateAllocationFree(t *testing.T) {
	g := New(hw.H100().GPU)
	if err := g.SetPowerCap(300); err != nil {
		t.Fatal(err)
	}
	g.SetMemClock(g.GPU().Mem.ClockMin)
	var s State
	if n := testing.AllocsPerRun(200, func() { s = g.Actuate(0.8) }); n != 0 {
		t.Fatalf("Actuate allocates %v times per call", n)
	}
	if !s.PowerLimited {
		t.Fatalf("state %+v: expected a power-limited clock at 300 W", s)
	}
}
