package workload

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/hw"
)

func TestCatalogAllValid(t *testing.T) {
	for _, w := range Catalog() {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}

func TestCatalogMatchesTable3(t *testing.T) {
	cpu := CPUWorkloads()
	gpu := GPUWorkloads()
	if len(cpu) != 11 {
		t.Errorf("CPU benchmark count = %d, want 11 (Table 3)", len(cpu))
	}
	if len(gpu) != 6 {
		t.Errorf("GPU benchmark count = %d, want 6 (Table 3)", len(gpu))
	}
	wantCPU := []string{"sra", "stream", "dgemm", "bt", "sp", "lu", "ep", "is", "cg", "ft", "mg"}
	for i, name := range wantCPU {
		if i >= len(cpu) || cpu[i].Name != name {
			t.Errorf("CPU workload %d = %q, want %q (paper order)", i, cpu[i].Name, name)
		}
	}
	wantGPU := []string{"sgemm", "gpustream", "cufft", "minife", "cloverleaf", "hpcg"}
	for i, name := range wantGPU {
		if i >= len(gpu) || gpu[i].Name != name {
			t.Errorf("GPU workload %d = %q, want %q (paper order)", i, gpu[i].Name, name)
		}
	}
}

func TestCatalogNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range Catalog() {
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
}

// TestByName checks that the name index covers every modeled workload
// with equal content, that every lookup of a name returns the one
// shared entry (the same phase backing array, so a lookup copies
// nothing), and that the unknown-name error lists valid names.
func TestByName(t *testing.T) {
	w, err := ByName("dgemm")
	if err != nil {
		t.Fatal(err)
	}
	if w.Kind != hw.KindCPU || w.Suite != "HPCC" {
		t.Errorf("dgemm metadata wrong: %+v", w)
	}
	for _, want := range AllWorkloads() {
		a, err := ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, want) {
			t.Errorf("%s: lookup differs from the catalog entry", want.Name)
		}
		b, _ := ByName(want.Name)
		if &a.Phases[0] != &b.Phases[0] {
			t.Errorf("%s: two lookups returned different phase slices", want.Name)
		}
	}
	_, err = ByName("linpack")
	if err == nil || !strings.Contains(err.Error(), "(valid: [") ||
		!strings.Contains(err.Error(), " dgemm ") || !strings.Contains(err.Error(), " llmserve ") {
		t.Errorf("unknown-workload error = %v, want the valid names", err)
	}
}

func TestComputeIntensityOrdering(t *testing.T) {
	// The paper's compute-intensity ordering must hold: DGEMM and EP are
	// compute intensive; STREAM, MG, CG are memory intensive.
	ci := func(name string) float64 {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return w.ComputeIntensity()
	}
	if ci("dgemm") <= ci("stream") {
		t.Error("DGEMM should have higher compute intensity than STREAM")
	}
	if ci("ep") <= ci("mg") {
		t.Error("EP should have higher compute intensity than MG")
	}
	if ci("sgemm") <= ci("minife") {
		t.Error("SGEMM should have higher compute intensity than MiniFE")
	}
	if ci("sgemm") <= ci("cloverleaf") {
		t.Error("SGEMM should have higher compute intensity than Cloverleaf")
	}
	if ci("cloverleaf") <= ci("hpcg") {
		t.Error("Cloverleaf should sit between SGEMM and HPCG")
	}
}

func TestPhaseActivityBlending(t *testing.T) {
	p := Phase{ActivityBase: 0.8, StallActivity: 0.4}
	if got := p.Activity(0); got != 0.8 {
		t.Errorf("unstalled activity = %v", got)
	}
	if got := p.Activity(1); got != 0.4 {
		t.Errorf("fully stalled activity = %v", got)
	}
	mid := p.Activity(0.5)
	if mid <= 0.4 || mid >= 0.8 {
		t.Errorf("blend out of range: %v", mid)
	}
	// Clamping.
	if p.Activity(-1) != 0.8 || p.Activity(2) != 0.4 {
		t.Error("stall fraction not clamped")
	}
}

func TestPhaseValidateRejectsBadPhases(t *testing.T) {
	good := Phase{
		Name: "p", Weight: 1, OpsPerUnit: 1, BytesPerUnit: 1,
		RandomFrac: 0, BandwidthEff: 0.5, ComputeEff: 0.5,
		Overlap: 2, ActivityBase: 0.8, StallActivity: 0.4,
	}
	mutations := []struct {
		name string
		mut  func(p *Phase)
	}{
		{"zero weight", func(p *Phase) { p.Weight = 0 }},
		{"weight over 1", func(p *Phase) { p.Weight = 1.5 }},
		{"negative ops", func(p *Phase) { p.OpsPerUnit = -1 }},
		{"no work", func(p *Phase) { p.OpsPerUnit = 0; p.BytesPerUnit = 0 }},
		{"random frac over 1", func(p *Phase) { p.RandomFrac = 1.5 }},
		{"zero bw eff", func(p *Phase) { p.BandwidthEff = 0 }},
		{"zero compute eff", func(p *Phase) { p.ComputeEff = 0 }},
		{"overlap below 1", func(p *Phase) { p.Overlap = 0.5 }},
		{"zero activity", func(p *Phase) { p.ActivityBase = 0 }},
		{"stall above base", func(p *Phase) { p.StallActivity = 0.9 }},
	}
	for _, m := range mutations {
		p := good
		m.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted invalid phase", m.name)
		}
	}
}

func TestWorkloadValidateRejectsBadWorkloads(t *testing.T) {
	w := Workload{Name: "", PerfPerUnitRate: 1}
	if err := w.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	w = Workload{Name: "x", PerfPerUnitRate: 1}
	if err := w.Validate(); err == nil {
		t.Error("no phases accepted")
	}
	good, _ := ByName("dgemm")
	bad := good
	bad.PerfPerUnitRate = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero perf scale accepted")
	}
	// Weights that don't sum to 1.
	bad = good
	bad.Phases = []Phase{good.Phases[0], good.Phases[0]}
	if err := bad.Validate(); err == nil {
		t.Error("weights summing to 2 accepted")
	}
}

func TestMultiPhaseWorkloadsExist(t *testing.T) {
	// The paper attributes the irregular curves of BT and MG to multiple
	// phases with different access patterns; the models must reflect that.
	for _, name := range []string{"bt", "sp", "lu", "ft", "mg"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Phases) < 2 {
			t.Errorf("%s should be multi-phase", name)
		}
	}
	for _, name := range []string{"ep", "dgemm", "stream"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Phases) != 1 {
			t.Errorf("%s should be single-phase (kernel benchmark)", name)
		}
	}
}

func TestMeanActivityRanges(t *testing.T) {
	for _, w := range Catalog() {
		a := w.MeanActivity()
		if a <= 0 || a > 1 {
			t.Errorf("%s mean activity %v out of (0,1]", w.Name, a)
		}
	}
	dgemm, _ := ByName("dgemm")
	sra, _ := ByName("sra")
	if dgemm.MeanActivity() <= sra.MeanActivity() {
		t.Error("DGEMM should have higher activity than SRA")
	}
}

func TestComputeIntensitySentinel(t *testing.T) {
	p := Phase{OpsPerUnit: 5, BytesPerUnit: 0}
	if p.ComputeIntensity() < 1e8 {
		t.Error("zero-traffic phase should return large sentinel")
	}
	w := Workload{Phases: []Phase{{Weight: 1, OpsPerUnit: 5, BytesPerUnit: 0}}}
	if w.ComputeIntensity() < 1e8 {
		t.Error("zero-traffic workload should return large sentinel")
	}
}
