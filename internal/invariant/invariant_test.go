package invariant

import (
	"strings"
	"testing"

	"repro/internal/coord"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/units"
	"repro/internal/workload"
)

// TestInvariantSweepCatalog is the acceptance gate: the full
// (platform × workload × budget-grid) sweep must report zero
// violations across every invariant.
func TestInvariantSweepCatalog(t *testing.T) {
	rep, err := Run(Config{})
	if err != nil {
		t.Fatalf("harness error: %v", err)
	}
	if rep.Pairs == 0 {
		t.Fatal("harness checked no pairs")
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	// Every invariant the package documents must actually have run.
	for _, want := range []string{
		"alloc-finite", "budget-bound", "classify-scale", "classify-stable",
		"coord-gap", "coord-monotone", "engine-identical", "expected-power-sum",
		"mem-range", "perfmax-monotone", "pool-conservation", "pool-nonneg",
		"reject-threshold", "schedule-complete", "schedule-work-conserving",
		"surplus-balance", "surplus-iff",
	} {
		tl := rep.PerInvariant[want]
		if tl == nil || tl.Checks == 0 {
			t.Errorf("invariant %q never checked", want)
		}
	}
	t.Logf("checked %d pairs, %d assertions across %d invariants",
		rep.Pairs, rep.Checks, len(rep.PerInvariant))
}

// TestInvariantConfigFilters pins the sweep restriction knobs: a
// single-pair config checks exactly that pair and skips kind
// mismatches.
func TestInvariantConfigFilters(t *testing.T) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	gpuW, err := workload.ByName("gpustream")
	if err != nil {
		t.Fatal(err)
	}
	cpuW, err := workload.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		Platforms:    []hw.Platform{p},
		Workloads:    []workload.Workload{cpuW, gpuW},
		BudgetPoints: 4,
		SkipEngine:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pairs != 1 {
		t.Errorf("pairs = %d, want 1 (GPU workload must not pair with a CPU platform)", rep.Pairs)
	}
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("violation: %s", v)
		}
	}
}

// TestMetamorphicScaleInvariance is the issue's named metamorphic case:
// scaling a workload's demands (its critical powers) together with the
// caps must not change its category, for any scale.
func TestMetamorphicScaleInvariance(t *testing.T) {
	p, _ := hw.PlatformByName("ivybridge")
	for _, wl := range []string{"stream", "dgemm", "sra", "bt"} {
		w, err := workload.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.ProfileCPU(p, w)
		if err != nil {
			t.Fatal(err)
		}
		rep := &Report{PerInvariant: make(map[string]*Tally)}
		c := &collector{rep: rep, platform: p.Name, workload: wl}
		checkClassifierScale(c, prof.Critical)
		for _, v := range rep.Violations {
			t.Errorf("%s: %s", wl, v)
		}
	}
}

// TestMetamorphicShrinkingBudget is the issue's second named
// metamorphic case: shrinking the budget must never increase the
// performance COORD achieves (checked against the simulator, not just
// the allocation arithmetic).
func TestMetamorphicShrinkingBudget(t *testing.T) {
	p, _ := hw.PlatformByName("haswell")
	w, err := workload.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Config{
		Platforms:    []hw.Platform{p},
		Workloads:    []workload.Workload{w},
		BudgetPoints: 24,
		SkipEngine:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := rep.PerInvariant["coord-monotone"]
	if tl == nil || tl.Checks == 0 {
		t.Fatal("coord-monotone never checked")
	}
	for _, v := range rep.Violations {
		if v.Invariant == "coord-monotone" || v.Invariant == "perfmax-monotone" {
			t.Errorf("violation: %s", v)
		}
	}
}

// TestViolationString pins the rendering used by pbc verify.
func TestViolationString(t *testing.T) {
	v := Violation{
		Invariant: "budget-bound", Platform: "ivybridge", Workload: "stream",
		Budget: 160, Detail: "allocated too much",
	}
	got := v.String()
	for _, part := range []string{"budget-bound", "ivybridge/stream", "160.0 W", "allocated too much"} {
		if !strings.Contains(got, part) {
			t.Errorf("String() = %q missing %q", got, part)
		}
	}
	if s := (Violation{Invariant: "classify-scale", Platform: "p", Workload: "w"}).String(); strings.Contains(s, "@") {
		t.Errorf("budget-free violation rendered a budget: %q", s)
	}
}

// TestGammaNonFiniteMatchesDefault pins the GPU metamorphic property at
// the harness level for every GPU pair: non-finite gamma falls back to
// the paper's default rather than poisoning the split.
func TestGammaNonFiniteMatchesDefault(t *testing.T) {
	for _, pl := range hw.Platforms() {
		if pl.Kind != hw.KindGPU {
			continue
		}
		for _, w := range workload.GPUWorkloads() {
			prof, err := profile.ProfileGPU(pl, w)
			if err != nil {
				t.Fatal(err)
			}
			for _, budget := range []units.Power{pl.GPU.MinCap, (pl.GPU.MinCap + pl.GPU.MaxCap) / 2, pl.GPU.MaxCap} {
				want := coord.GPU(prof, budget, coord.DefaultGamma)
				for _, gamma := range []float64{0, -1, 1.5} {
					if got := coord.GPU(prof, budget, gamma); got != want {
						t.Errorf("%s/%s gamma=%v: %+v, want default %+v", pl.Name, w.Name, gamma, got, want)
					}
				}
			}
		}
	}
}
