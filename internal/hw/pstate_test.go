package hw

import (
	"math"
	"testing"

	"repro/internal/units"
)

// steppedPStates is the P-state table built by stepping up from FMin by
// repeated addition, the way the table was first defined.
func steppedPStates(c *CPUSpec) []units.Frequency {
	var states []units.Frequency
	for f := c.FMin; f < c.FNom+c.PStateStep/2; f += c.PStateStep {
		if f > c.FNom {
			f = c.FNom
		}
		states = append(states, f)
	}
	if len(states) == 0 || states[len(states)-1] != c.FNom {
		states = append(states, c.FNom)
	}
	return states
}

// loopDuties is the T-state duty table as first defined: 1.0, then one
// entry per throttle step, clamped to MinDuty.
func loopDuties(c *CPUSpec) []float64 {
	duties := []float64{1.0}
	if c.TStateSteps <= 0 {
		return duties
	}
	step := (1.0 - c.MinDuty) / float64(c.TStateSteps)
	for i := 1; i <= c.TStateSteps; i++ {
		d := 1.0 - float64(i)*step
		if d < c.MinDuty {
			d = c.MinDuty
		}
		duties = append(duties, d)
	}
	return duties
}

// TestPStateAtMatchesTable: for every catalog CPU, plus specs whose
// grid misses FNom, lands half a step short of it, or has a step wider
// than the range, the closed-form P-states and duty cycles equal the
// PStates/Duties tables and the first definitions bit for bit, and
// NumPStates/NumDuties are their lengths.
func TestPStateAtMatchesTable(t *testing.T) {
	var cpus []*CPUSpec
	for _, p := range AllPlatforms() {
		if p.Kind == KindCPU {
			cpus = append(cpus, p.CPU)
		}
	}
	if len(cpus) == 0 {
		t.Fatal("catalog has no CPU platforms")
	}
	offGrid := *IvyBridge().CPU
	offGrid.Name = "off-grid"
	offGrid.FNom = 2.537 * units.Gigahertz
	offGrid.MinDuty = 0.1
	offGrid.TStateSteps = 7
	halfStep := *IvyBridge().CPU
	halfStep.Name = "half-step"
	halfStep.FNom = halfStep.FMin + 12*halfStep.PStateStep + halfStep.PStateStep/2
	wide := *IvyBridge().CPU
	wide.Name = "wide"
	wide.PStateStep = 2 * (wide.FNom - wide.FMin)
	cpus = append(cpus, &offGrid, &halfStep, &wide)

	for _, c := range cpus {
		table, ref := c.PStates(), steppedPStates(c)
		if n := c.NumPStates(); n != len(table) || n != len(ref) {
			t.Fatalf("%s: NumPStates %d, len(PStates) %d, stepped grid %d",
				c.Name, n, len(table), len(ref))
		}
		for i := range ref {
			if got := c.PStateAt(i); got != table[i] || got != ref[i] {
				t.Fatalf("%s: PStateAt(%d) = %v, PStates()[%d] = %v, stepped %v",
					c.Name, i, got, i, table[i], ref[i])
			}
		}
		duties, dref := c.Duties(), loopDuties(c)
		if n := c.NumDuties(); n != len(duties) || n != len(dref) {
			t.Fatalf("%s: NumDuties %d, len(Duties) %d, loop %d", c.Name, n, len(duties), len(dref))
		}
		for i := range dref {
			if got := c.DutyAt(i); math.Float64bits(got) != math.Float64bits(duties[i]) ||
				math.Float64bits(got) != math.Float64bits(dref[i]) {
				t.Fatalf("%s: DutyAt(%d) = %v, Duties()[%d] = %v, loop %v",
					c.Name, i, got, i, duties[i], dref[i])
			}
		}
	}
}
