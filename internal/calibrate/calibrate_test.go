package calibrate

import (
	"slices"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

func ivy(t *testing.T) hw.Platform {
	t.Helper()
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFitReproducesAnchors(t *testing.T) {
	// Take a catalog workload, perturb its parameters, and require the
	// fit to recover the original uncapped behaviour from its anchors.
	p := ivy(t)
	orig, err := workload.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	truth, err := sim.RunCPU(p, &orig, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	perturbed := orig.Clone()
	perturbed.Phases[0].BandwidthEff = 0.4
	perturbed.Phases[0].ActivityBase = 0.9
	perturbed.Phases[0].StallActivity = 0.45

	res, err := Fit(p, perturbed, Anchors{
		ProcPower: truth.ProcPower,
		MemPower:  truth.MemPower,
		Perf:      truth.Perf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged() {
		t.Fatalf("fit did not converge: proc %.3f mem %.3f perf %.3f (%d runs)",
			res.ProcErr, res.MemErr, res.PerfErr, res.Iterations)
	}
	check, err := sim.RunCPU(p, &res.Workload, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if relErr(check.Perf, truth.Perf) > 0.03 {
		t.Errorf("calibrated perf %.1f vs truth %.1f", check.Perf, truth.Perf)
	}
	if relErr(check.MemPower.Watts(), truth.MemPower.Watts()) > 0.03 {
		t.Errorf("calibrated mem power %v vs truth %v", check.MemPower, truth.MemPower)
	}
}

// TestFitLeavesArgumentUnchanged: Fit adjusts its own copy of the
// phases. A catalog lookup's phases are shared with every other lookup
// of the name, so a fit that wrote through its argument would recalibrate
// stream for the whole process.
func TestFitLeavesArgumentUnchanged(t *testing.T) {
	w, err := workload.ByName("stream")
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(w.Phases)
	res, err := Fit(ivy(t), w, Anchors{ProcPower: 109, MemPower: 116})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(w.Phases, want) {
		t.Fatalf("Fit rewrote its argument's phases: %+v, want %+v", w.Phases[0], want[0])
	}
	if slices.Equal(res.Workload.Phases, want) {
		t.Fatal("the fit moved no parameter; the test needs anchors that do")
	}
}

func TestFitSyntheticToPaperAnchors(t *testing.T) {
	// Fit a generic synthetic model to the paper's SRA anchors
	// (~109 W CPU, ~116 W DRAM): the headline use case.
	p := ivy(t)
	spec := workload.SyntheticSpec{
		Name: "sra-like", Kind: hw.KindCPU,
		OpsPerByte: 0.05, Randomness: 1.0,
		Vectorized: 0.4, OverlapQuality: 0.1,
	}
	w, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Fit(p, w, Anchors{ProcPower: 109, MemPower: 116})
	if err != nil {
		t.Fatal(err)
	}
	if res.ProcErr > 0.02 || res.MemErr > 0.02 {
		t.Fatalf("fit residuals: proc %.3f mem %.3f", res.ProcErr, res.MemErr)
	}
	final, err := sim.RunCPU(p, &res.Workload, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if final.ProcPower.Watts() < 106 || final.ProcPower.Watts() > 112 {
		t.Errorf("fitted CPU power = %v", final.ProcPower)
	}
	if final.MemPower.Watts() < 113 || final.MemPower.Watts() > 119 {
		t.Errorf("fitted DRAM power = %v", final.MemPower)
	}
}

func TestFitRejectsImpossibleAnchors(t *testing.T) {
	p := ivy(t)
	w, _ := workload.ByName("stream")
	if _, err := Fit(p, w, Anchors{MemPower: p.DRAM.BackgroundPower - 5}); err == nil {
		t.Error("sub-floor DRAM anchor accepted")
	}
	if _, err := Fit(p, w, Anchors{ProcPower: p.CPU.IdlePower - 5}); err == nil {
		t.Error("sub-floor package anchor accepted")
	}
	xp, _ := hw.PlatformByName("titanxp")
	if _, err := Fit(xp, w, Anchors{ProcPower: 100}); err == nil {
		t.Error("GPU platform accepted")
	}
	bad := w
	bad.Phases = nil
	if _, err := Fit(p, bad, Anchors{}); err == nil {
		t.Error("invalid workload accepted")
	}
}

func TestFitPartialAnchors(t *testing.T) {
	// Fitting only the memory anchor must leave the other residuals at
	// zero (not-given) and still converge.
	p := ivy(t)
	w, _ := workload.ByName("mg")
	res, err := Fit(p, w, Anchors{MemPower: 110})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemErr > 0.02 {
		t.Errorf("memory residual %.3f", res.MemErr)
	}
	if res.ProcErr != 0 || res.PerfErr != 0 {
		t.Errorf("ungiven anchors should have zero residuals: %+v", res)
	}
	if !res.Converged() {
		t.Error("partial fit should converge")
	}
}

func TestFitUnreachableAnchorReportsResidual(t *testing.T) {
	// A performance anchor far above the platform's capability keeps the
	// nearest endpoint and reports a big residual instead of failing.
	p := ivy(t)
	w, _ := workload.ByName("dgemm")
	res, err := Fit(p, w, Anchors{Perf: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerfErr < 0.5 {
		t.Errorf("unreachable perf anchor residual %.3f, want large", res.PerfErr)
	}
	if res.Converged() {
		t.Error("unreachable anchor must not report convergence")
	}
}

func TestFitMultiPhasePreservesStructure(t *testing.T) {
	p := ivy(t)
	w, _ := workload.ByName("bt")
	res, err := Fit(p, w, Anchors{ProcPower: 150, MemPower: 95})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Workload.Phases) != len(w.Phases) {
		t.Error("fit changed the phase structure")
	}
	if err := res.Workload.Validate(); err != nil {
		t.Errorf("fitted workload invalid: %v", err)
	}
	// Anchors within the platform's envelope fit tightly.
	if res.ProcErr > 0.02 || res.MemErr > 0.02 {
		t.Errorf("residuals: proc %.3f mem %.3f", res.ProcErr, res.MemErr)
	}
}
