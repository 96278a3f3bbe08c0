package hw_test

import (
	"slices"
	"testing"

	"repro/internal/hw"
)

// TestEntryLaddersShared: a catalog entry's PStateBins and SMClockBins
// return its one ladder, the same backing array on every call, with no
// allocation; a Clone and a raw copy of an entry's spec get fresh
// ladders of equal content, and a clone's ladder follows a change to
// its top clock while the entry's does not move.
func TestEntryLaddersShared(t *testing.T) {
	for _, want := range hw.AllPlatforms() {
		p, err := hw.PlatformByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		entry := ladder(p)
		var again []hw.Bin
		if n := testing.AllocsPerRun(100, func() { again = ladder(p) }); n != 0 {
			t.Errorf("%s: an entry's ladder costs %v allocations per call", p.Name, n)
		}
		if &again[0] != &entry[0] {
			t.Errorf("%s: two calls on the entry returned different ladders", p.Name)
		}

		c := p.Clone()
		raw := p
		if p.CPU != nil {
			cpu := *p.CPU
			raw.CPU = &cpu
		} else {
			gpu := *p.GPU
			raw.GPU = &gpu
		}
		for name, q := range map[string]hw.Platform{"Clone": c, "raw copy": raw} {
			l := ladder(q)
			if &l[0] == &entry[0] {
				t.Errorf("%s: a %s shares the entry's ladder", p.Name, name)
			}
			if !slices.Equal(l, entry) {
				t.Errorf("%s: a %s's ladder differs from the entry's", p.Name, name)
			}
		}

		// One step more at the top adds one bin to the clone's ladder.
		if c.CPU != nil {
			c.CPU.FNom += c.CPU.PStateStep
		} else {
			c.GPU.SMClockNom += c.GPU.SMClockStep
		}
		top := entry[len(entry)-1].Freq
		if grown := ladder(c); len(grown) != len(entry)+1 || grown[len(grown)-1].Freq <= top {
			t.Errorf("%s: after raising the clone's top clock its ladder has %d bins up to %v; the entry's %d up to %v",
				p.Name, len(grown), grown[len(grown)-1].Freq, len(entry), top)
		}
		if again := ladder(p); &again[0] != &entry[0] || !slices.Equal(again, ladder(want)) {
			t.Errorf("%s: changing the clone moved the entry's ladder", p.Name)
		}
	}
}

// ladder is the DVFS ladder of p's actuated component.
func ladder(p hw.Platform) []hw.Bin {
	if p.CPU != nil {
		return p.CPU.PStateBins()
	}
	return p.GPU.SMClockBins()
}
