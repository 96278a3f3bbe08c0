package hw

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/units"
)

func xpGPU() *GPUSpec { p := TitanXP(); return p.GPU }
func tvGPU() *GPUSpec { p := TitanV(); return p.GPU }

func TestGPUValidateRejectsBadSpecs(t *testing.T) {
	base := *xpGPU()
	mutations := []struct {
		name string
		mut  func(g *GPUSpec)
	}{
		{"zero SMs", func(g *GPUSpec) { g.SMs = 0 }},
		{"zero lanes", func(g *GPUSpec) { g.LanesPerSM = 0 }},
		{"bad clock range", func(g *GPUSpec) { g.SMClockNom = g.SMClockMin - 1 }},
		{"zero clock step", func(g *GPUSpec) { g.SMClockStep = 0 }},
		{"bad voltage", func(g *GPUSpec) { g.VNom = g.VMin / 2 }},
		{"zero dyn power", func(g *GPUSpec) { g.SMMaxDynPower = 0 }},
		{"bad caps", func(g *GPUSpec) { g.MaxCap = g.MinCap - 1; g.TDP = g.MinCap }},
		{"bad mem", func(g *GPUSpec) { g.Mem.BytesPerClock = 0 }},
	}
	for _, m := range mutations {
		g := base
		m.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted invalid spec", m.name)
		}
	}
}

func TestGPUPeakComputeRate(t *testing.T) {
	g := xpGPU()
	got := g.PeakComputeRate(g.SMClockNom).OpsPerSecond() / 1e12
	want := 30 * 128 * 2 * 1.582 / 1000 // ~12.1 TFLOPS
	if math.Abs(got-want) > 0.1 {
		t.Errorf("Titan XP peak = %.2f TFLOPS, want %.2f", got, want)
	}
	v := tvGPU()
	got = v.PeakComputeRate(v.SMClockNom).OpsPerSecond() / 1e12
	want = 80 * 64 * 2 * 1.455 / 1000 // ~14.9 TFLOPS
	if math.Abs(got-want) > 0.1 {
		t.Errorf("Titan V peak = %.2f TFLOPS, want %.2f", got, want)
	}
}

func TestGPUMemBandwidth(t *testing.T) {
	g := xpGPU()
	got := g.Mem.PeakBandwidth(g.Mem.ClockNom).GBPerSecond()
	if got < 540 || got > 555 { // GDDR5X spec: 547.7 GB/s
		t.Errorf("Titan XP bandwidth = %.1f GB/s, want ~548", got)
	}
	v := tvGPU()
	got = v.Mem.PeakBandwidth(v.Mem.ClockNom).GBPerSecond()
	if got < 645 || got > 660 { // HBM2 spec: 652.8 GB/s
		t.Errorf("Titan V bandwidth = %.1f GB/s, want ~653", got)
	}
}

func TestGPUMemPowerModel(t *testing.T) {
	m := &xpGPU().Mem
	if got := m.Power(m.ClockMin); got != m.PowerMin {
		t.Errorf("power at min clock = %v, want %v", got, m.PowerMin)
	}
	if got := m.Power(m.ClockMax); got != m.PowerMax {
		t.Errorf("power at max clock = %v, want %v", got, m.PowerMax)
	}
	// Monotone over the clock range.
	prev := units.Power(-1)
	for _, c := range m.Clocks() {
		p := m.Power(c)
		if p < prev {
			t.Errorf("memory power not monotone at %v", c)
		}
		prev = p
	}
	// Clamping outside the range.
	if m.Power(0) != m.PowerMin || m.Power(100*units.Gigahertz) != m.PowerMax {
		t.Error("clock not clamped in Power")
	}
}

func TestGPUMemClockForPowerInverse(t *testing.T) {
	m := &xpGPU().Mem
	for budget := m.PowerMin; budget <= m.PowerMax; budget += 2 {
		c := m.ClockForPower(budget)
		if c < m.ClockMin || c > m.ClockMax {
			t.Fatalf("clock %v out of range for budget %v", c, budget)
		}
		if p := m.Power(c); p > budget+0.01 {
			t.Errorf("ClockForPower(%v) = %v has power %v over budget", budget, c, p)
		}
	}
	// Budgets below the floor saturate at ClockMin.
	if got := m.ClockForPower(m.PowerMin / 2); got != m.ClockMin {
		t.Errorf("low budget clock = %v, want min", got)
	}
	// Budgets above the ceiling saturate at ClockMax.
	if got := m.ClockForPower(m.PowerMax * 2); got != m.ClockMax {
		t.Errorf("high budget clock = %v, want max", got)
	}
}

func TestGPUSMPowerMonotone(t *testing.T) {
	g := xpGPU()
	prev := units.Power(-1)
	for _, c := range g.SMClocks() {
		p := g.SMPower(c, 0.8)
		if p <= prev {
			t.Errorf("SM power not increasing at %v", c)
		}
		prev = p
	}
	if g.SMPower(g.SMClockNom, 0.2) >= g.SMPower(g.SMClockNom, 0.9) {
		t.Error("SM power not increasing in activity")
	}
}

func TestGPUBoardPowerCalibration(t *testing.T) {
	g := xpGPU()
	// Full-tilt SGEMM-like load must exceed the 300 W maximum settable cap
	// (the paper observes SGEMM's performance keeps rising through 300 W).
	full := g.BoardPower(g.SMClockNom, g.Mem.ClockNom, 1.0)
	if full.Watts() <= 300 {
		t.Errorf("Titan XP full board power = %v, want > 300 W", full)
	}
	// A memory-bound MiniFE-like load (SM activity ~0.36) should flatten
	// around the paper's 180 W.
	mini := g.BoardPower(g.SMClockNom, g.Mem.ClockNom, 0.36)
	if mini.Watts() < 168 || mini.Watts() > 192 {
		t.Errorf("Titan XP MiniFE-like power = %v, want 168-192 W", mini)
	}
	v := tvGPU()
	// Titan V SGEMM flattens near 180 W per the paper.
	fullV := v.BoardPower(v.SMClockNom, v.Mem.ClockNom, 1.0)
	if fullV.Watts() < 165 || fullV.Watts() > 195 {
		t.Errorf("Titan V full board power = %v, want 165-195 W", fullV)
	}
	// HBM2 power range is much smaller than GDDR5X (paper Section 4).
	xpRange := g.Mem.PowerMax - g.Mem.PowerMin
	vRange := v.Mem.PowerMax - v.Mem.PowerMin
	if vRange >= xpRange {
		t.Errorf("HBM2 range %v should be below GDDR5X range %v", vRange, xpRange)
	}
}

func TestGPUClockTables(t *testing.T) {
	g := xpGPU()
	cs := g.SMClocks()
	if cs[0] != g.SMClockMin || cs[len(cs)-1] != g.SMClockNom {
		t.Errorf("SM clock table ends = %v..%v", cs[0], cs[len(cs)-1])
	}
	for i := 1; i < len(cs); i++ {
		if cs[i] <= cs[i-1] {
			t.Fatalf("SM clocks not ascending at %d", i)
		}
	}
	ms := g.Mem.Clocks()
	if ms[0] != g.Mem.ClockMin || ms[len(ms)-1] != g.Mem.ClockMax {
		t.Errorf("mem clock table ends = %v..%v", ms[0], ms[len(ms)-1])
	}
}

// TestPlatformByName checks that the name index covers the whole
// catalog with equal content, that every lookup of a name returns the
// one shared entry (the same spec pointers, so a lookup copies
// nothing), and that the unknown-name error lists the valid names.
func TestPlatformByName(t *testing.T) {
	for _, want := range AllPlatforms() {
		a, err := PlatformByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, want) {
			t.Errorf("%s: lookup differs from the catalog entry", want.Name)
		}
		b, _ := PlatformByName(want.Name)
		if a.CPU != b.CPU || a.DRAM != b.DRAM || a.GPU != b.GPU {
			t.Errorf("%s: two lookups returned different spec pointers", want.Name)
		}
	}
	_, err := PlatformByName("epyc")
	if err == nil || !strings.Contains(err.Error(),
		"(valid: [h100 h200 haswell ivybridge titanv titanxp])") {
		t.Errorf("unknown-platform error = %v, want the sorted valid names", err)
	}
}

func TestPlatformKinds(t *testing.T) {
	kinds := map[string]Kind{
		"ivybridge": KindCPU, "haswell": KindCPU,
		"titanxp": KindGPU, "titanv": KindGPU,
	}
	for _, p := range Platforms() {
		if p.Kind != kinds[p.Name] {
			t.Errorf("%s kind = %v", p.Name, p.Kind)
		}
	}
	if KindCPU.String() != "cpu" || KindGPU.String() != "gpu" {
		t.Error("Kind.String")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestPlatformValidateDetectsMissingSpecs(t *testing.T) {
	p := IvyBridge()
	p.DRAM = nil
	if err := p.Validate(); err == nil {
		t.Error("CPU platform without DRAM should fail validation")
	}
	g := TitanXP()
	g.GPU = nil
	if err := g.Validate(); err == nil {
		t.Error("GPU platform without GPU should fail validation")
	}
	bad := Platform{Name: "x", Kind: Kind(42)}
	if err := bad.Validate(); err == nil {
		t.Error("unknown kind should fail validation")
	}
}

func TestGPUValidateMoreMutations(t *testing.T) {
	base := *xpGPU()
	mutations := []struct {
		name string
		mut  func(g *GPUSpec)
	}{
		{"zero ops per lane", func(g *GPUSpec) { g.OpsPerCyclePerLane = 0 }},
		{"zero sm clock min", func(g *GPUSpec) { g.SMClockMin = 0 }},
		{"zero vmin", func(g *GPUSpec) { g.VMin = 0 }},
		{"negative idle", func(g *GPUSpec) { g.IdleBoard = -1 }},
		{"negative sm idle", func(g *GPUSpec) { g.SMIdlePower = -1 }},
		{"zero min cap", func(g *GPUSpec) { g.MinCap = 0 }},
		{"tdp below min", func(g *GPUSpec) { g.TDP = g.MinCap - 1 }},
		{"mem clock order", func(g *GPUSpec) { g.Mem.ClockNom = g.Mem.ClockMin - 1 }},
		{"mem clock step", func(g *GPUSpec) { g.Mem.ClockStep = 0 }},
		{"mem power order", func(g *GPUSpec) { g.Mem.PowerMax = g.Mem.PowerMin - 1 }},
		{"mem power zero", func(g *GPUSpec) { g.Mem.PowerMin = 0; g.Mem.PowerMax = 0 }},
	}
	for _, m := range mutations {
		g := base
		m.mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s accepted", m.name)
		}
	}
}

func TestClockTablesDegenerate(t *testing.T) {
	// A clock range narrower than the step still yields both endpoints.
	g := *xpGPU()
	g.SMClockStep = 2 * (g.SMClockNom - g.SMClockMin)
	cs := g.SMClocks()
	if len(cs) < 2 || cs[0] != g.SMClockMin || cs[len(cs)-1] != g.SMClockNom {
		t.Errorf("degenerate SM table = %v", cs)
	}
	m := g.Mem
	m.ClockStep = 2 * (m.ClockMax - m.ClockMin)
	ms := m.Clocks()
	if len(ms) < 2 || ms[len(ms)-1] != m.ClockMax {
		t.Errorf("degenerate mem table = %v", ms)
	}
}

func TestCPUPStatesDegenerate(t *testing.T) {
	c := *ivyCPU()
	c.PStateStep = 2 * (c.FNom - c.FMin)
	ps := c.PStates()
	if len(ps) < 2 || ps[len(ps)-1] != c.FNom {
		t.Errorf("degenerate P-state table = %v", ps)
	}
	// Zero T-state steps leave only full duty.
	c2 := *ivyCPU()
	c2.TStateSteps = 0
	if ds := c2.Duties(); len(ds) != 1 || ds[0] != 1.0 {
		t.Errorf("no-throttle duties = %v", ds)
	}
}

func TestClampRangeNaN(t *testing.T) {
	c := ivyCPU()
	// NaN duty falls back to the low bound rather than propagating.
	p := c.Power(c.FNom, math.NaN(), 0.5)
	if math.IsNaN(p.Watts()) {
		t.Error("NaN duty propagated into power")
	}
}
