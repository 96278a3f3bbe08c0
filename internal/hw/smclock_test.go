package hw

import (
	"testing"

	"repro/internal/units"
)

// steppedSMClocks is the SM clock table built by stepping up from
// SMClockMin by repeated addition, the way the table was first defined.
func steppedSMClocks(g *GPUSpec) []units.Frequency {
	var cs []units.Frequency
	for f := g.SMClockMin; f <= g.SMClockNom+g.SMClockStep/2; f += g.SMClockStep {
		if f > g.SMClockNom {
			f = g.SMClockNom
		}
		cs = append(cs, f)
	}
	if len(cs) == 0 || cs[len(cs)-1] != g.SMClockNom {
		cs = append(cs, g.SMClockNom)
	}
	return cs
}

// TestSMClockAtMatchesTable: for every catalog GPU (and the degenerate
// step wider than the range), the closed-form bins equal the SMClocks
// table and the repeated-addition grid bit for bit, and NumSMClocks is
// their length.
func TestSMClockAtMatchesTable(t *testing.T) {
	var gpus []*GPUSpec
	for _, p := range AllPlatforms() {
		if p.Kind == KindGPU {
			gpus = append(gpus, p.GPU)
		}
	}
	if len(gpus) == 0 {
		t.Fatal("catalog has no GPU platforms")
	}
	wide := *xpGPU()
	wide.SMClockStep = 2 * (wide.SMClockNom - wide.SMClockMin)
	exact := *xpGPU()
	exact.SMClockNom = exact.SMClockMin + 80*exact.SMClockStep // grid lands on nominal
	gpus = append(gpus, &wide, &exact)

	for _, g := range gpus {
		table := g.SMClocks()
		ref := steppedSMClocks(g)
		if n := g.NumSMClocks(); n != len(table) || n != len(ref) {
			t.Fatalf("%s: NumSMClocks %d, len(SMClocks) %d, stepped grid %d",
				g.Name, n, len(table), len(ref))
		}
		for i := range ref {
			if got := g.SMClockAt(i); got != table[i] || got != ref[i] {
				t.Fatalf("%s: SMClockAt(%d) = %v, SMClocks()[%d] = %v, stepped %v",
					g.Name, i, got, i, table[i], ref[i])
			}
		}
	}
}
