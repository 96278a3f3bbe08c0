package rapl

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/units"
)

// scanActuate is the reference actuator for an enabled package cap:
// build the P-state table, walk it from the top and stop at the first
// state whose power fits under the cap; failing that, walk the T-state
// duties down at FMin.
func scanActuate(cpu *hw.CPUSpec, cap units.Power, act float64) PackageState {
	pstates := cpu.PStates()
	for i := len(pstates) - 1; i >= 0; i-- {
		if cpu.Power(pstates[i], 1, act) <= cap {
			return PackageState{Freq: pstates[i], Duty: 1}
		}
	}
	for _, duty := range cpu.Duties()[1:] {
		if cpu.Power(cpu.FMin, duty, act) <= cap {
			return PackageState{Freq: cpu.FMin, Duty: duty, Throttled: true}
		}
	}
	return PackageState{Freq: cpu.FMin, Duty: cpu.MinDuty, Throttled: true, AtFloor: true}
}

func ulpBelow(p units.Power) units.Power {
	return units.Power(math.Nextafter(p.Watts(), math.Inf(-1)))
}

func ulpAbove(p units.Power) units.Power {
	return units.Power(math.Nextafter(p.Watts(), math.Inf(1)))
}

// TestActuatePackageEqualsScan: the binary search selects exactly the
// state of the top-down scan on every catalog CPU, over a dense grid of
// caps programmed through the limit register (from below the hardware
// floor to above the package maximum) × activities, and at caps one
// ulp either side of every P-state's and every T-state's package
// power, where the fit predicate flips. The register quantizes caps to
// 1/8 W, so the ulp edges go straight to the search.
func TestActuatePackageEqualsScan(t *testing.T) {
	acts := []float64{-0.25, 0, 0.1, 0.36, 0.5, 0.75, 0.9, 1, 1.5, math.NaN()}
	checked := 0
	for _, p := range hw.AllPlatforms() {
		if p.Kind != hw.KindCPU {
			continue
		}
		cpu := p.CPU
		c := NewController(cpu, p.DRAM)
		fail := func(cap units.Power, act float64, got, want PackageState) {
			t.Fatalf("%s: cap %v act %v: actuator = %+v, scan = %+v", p.Name, cap, act, got, want)
		}
		for _, act := range acts {
			for cap := units.Power(1); cap <= cpu.MaxPower(1)+20; cap += 0.5 {
				if err := c.SetLimit(DomainPackage, cap); err != nil {
					t.Fatal(err)
				}
				programmed, _ := c.Limit(DomainPackage)
				if got, want := c.ActuatePackage(act), scanActuate(cpu, programmed, act); got != want {
					fail(programmed, act, got, want)
				}
				checked++
			}
			var edges []units.Power
			for i := 0; i < cpu.NumPStates(); i++ {
				edges = append(edges, cpu.Power(cpu.PStateAt(i), 1, act))
			}
			for i := 1; i < cpu.NumDuties(); i++ {
				edges = append(edges, cpu.Power(cpu.FMin, cpu.DutyAt(i), act))
			}
			for _, e := range edges {
				for _, cap := range []units.Power{e, ulpBelow(e), ulpAbove(e)} {
					if got, want := c.actuateUnder(cap, act), scanActuate(cpu, cap, act); got != want {
						fail(cap, act, got, want)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no CPU platform in the catalog")
	}
}

// TestActuatePackageAllocationFree: selecting a state builds no
// P-state or duty table.
func TestActuatePackageAllocationFree(t *testing.T) {
	c := newIvyController()
	if err := c.SetLimit(DomainPackage, 60); err != nil {
		t.Fatal(err)
	}
	var s PackageState
	if n := testing.AllocsPerRun(200, func() { s = c.ActuatePackage(0.8) }); n != 0 {
		t.Fatalf("ActuatePackage allocates %v times per call", n)
	}
	if !s.Throttled {
		t.Fatalf("state %+v: expected T-states engaged at 60 W", s)
	}
}
