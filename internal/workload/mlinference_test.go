package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hw"
)

// inOrderSum reproduces the summation order Validate and the dyncoord
// plan tables use: left-to-right over the phase slice.
func inOrderSum(phases []Phase) float64 {
	total := 0.0
	for i := range phases {
		total += phases[i].Weight
	}
	return total
}

func phasesWithWeights(weights ...float64) []Phase {
	out := make([]Phase, len(weights))
	for i, w := range weights {
		out[i] = Phase{
			Name: "p", Weight: w, OpsPerUnit: 1, BytesPerUnit: 1,
			BandwidthEff: 0.5, ComputeEff: 0.5, Overlap: 1,
			ActivityBase: 0.5, StallActivity: 0.25,
		}
	}
	return out
}

// TestRegressPhaseWeightNormalizationExactSum is the satellite-2
// regression: phase weights built from float arithmetic (1/3 per phase,
// 1/7 per phase, sequence-length ratios) can sum to 1±ε. Before
// NormalizeWeights, Validate either wrongly rejected such workloads or
// silently accepted an inexact sum that mis-splits time in dyncoord
// plan tables. Normalization must produce an in-order sum of exactly
// 1.0 — bit-exact, not within tolerance.
func TestRegressPhaseWeightNormalizationExactSum(t *testing.T) {
	third := 1.0 / 3
	seventh := 1.0 / 7
	cases := []struct {
		name    string
		weights []float64
	}{
		{"thirds", []float64{third, third, third}},
		{"sevenths", []float64{seventh, seventh, seventh, seventh, seventh, seventh, seventh}},
		{"seq-mix-1024-512", []float64{1024.0 / 1536, 512.0 / 1536}},
		{"drifted-pair", []float64{0.7, 0.30000000000000004}},
		{"unnormalized-ratio", []float64{2, 1}},
		{"tolerance-edge-low", []float64{0.4995, 0.4995}},  // sums to 0.999: Validate's old edge
		{"tolerance-edge-high", []float64{0.5005, 0.5005}}, // sums to 1.001
		{"wrongly-rejected-pre", []float64{0.499, 0.499}},  // 0.998: outside old tolerance entirely
		{"single", []float64{0.9999999}},
		{"many-tiny", func() []float64 {
			ws := make([]float64, 13)
			for i := range ws {
				ws[i] = 1.0 / 13
			}
			return ws
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			phases := phasesWithWeights(tc.weights...)
			if err := NormalizeWeights(phases); err != nil {
				t.Fatalf("NormalizeWeights: %v", err)
			}
			if got := inOrderSum(phases); got != 1 {
				t.Fatalf("in-order weight sum after normalization = %.17g, want exactly 1", got)
			}
			for i := range phases {
				if w := phases[i].Weight; w <= 0 || w > 1 {
					t.Fatalf("normalized weight %d = %v out of (0,1]", i, w)
				}
			}
			w := Workload{
				Name: "norm", Kind: hw.KindCPU, PerfUnit: "u/s",
				PerfPerUnitRate: 1, Phases: phases,
			}
			if err := w.Validate(); err != nil {
				t.Fatalf("Validate after normalization: %v", err)
			}
		})
	}
}

func TestNormalizeWeightsRejectsBadInput(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
	}{
		{"empty", nil},
		{"zero", []float64{0.5, 0}},
		{"negative", []float64{0.5, -0.1}},
		{"nan", []float64{0.5, nan()}},
		{"inf", []float64{0.5, math.Inf(1)}},
		{"huge", []float64{1e19, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := NormalizeWeights(phasesWithWeights(tc.weights...)); err == nil {
				t.Fatalf("NormalizeWeights(%v) accepted", tc.weights)
			}
		})
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}

func TestNormalizedPreservesRatios(t *testing.T) {
	w := Workload{
		Name: "ratio", Kind: hw.KindCPU, PerfUnit: "u/s", PerfPerUnitRate: 1,
		Phases: phasesWithWeights(3, 1),
	}
	n, err := w.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if got := n.Phases[0].Weight; got < 0.7499 || got > 0.7501 {
		t.Fatalf("normalized first weight = %v, want 0.75", got)
	}
	if inOrderSum(n.Phases) != 1 {
		t.Fatalf("normalized sum inexact")
	}
	// The receiver must be untouched.
	if w.Phases[0].Weight != 3 {
		t.Fatalf("Normalized mutated receiver: %v", w.Phases[0].Weight)
	}
}

func TestMLInferenceWorkloadsValid(t *testing.T) {
	mls := MLInference()
	if len(mls) != 3 {
		t.Fatalf("MLInference returned %d workloads, want 3", len(mls))
	}
	for _, w := range mls {
		if err := w.Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if w.Kind != hw.KindGPU {
			t.Errorf("%s: kind %v, want gpu", w.Name, w.Kind)
		}
		if len(w.Phases) != 2 {
			t.Fatalf("%s: %d phases, want prefill+decode", w.Name, len(w.Phases))
		}
		if inOrderSum(w.Phases) != 1 {
			t.Errorf("%s: weights sum %.17g, want exactly 1", w.Name, inOrderSum(w.Phases))
		}
		pre, dec := w.Phases[0], w.Phases[1]
		if pre.Name != "prefill" || dec.Name != "decode" {
			t.Fatalf("%s: phase names %q, %q", w.Name, pre.Name, dec.Name)
		}
		// The class's defining contrast: prefill far above any modeled
		// GPU's machine balance, decode far below it.
		if pre.ComputeIntensity() < 50 {
			t.Errorf("%s: prefill intensity %v not compute bound", w.Name, pre.ComputeIntensity())
		}
		if dec.ComputeIntensity() > 10 {
			t.Errorf("%s: decode intensity %v not bandwidth bound", w.Name, dec.ComputeIntensity())
		}
	}
	// Mix ordering: chat is decode heavy, batch is prefill heavy.
	byName := map[string]Workload{}
	for _, w := range mls {
		byName[w.Name] = w
	}
	if byName["llmchat"].Phases[1].Weight <= byName["llmserve"].Phases[1].Weight {
		t.Errorf("llmchat should be more decode heavy than llmserve")
	}
	if byName["llmbatch"].Phases[0].Weight <= byName["llmserve"].Phases[0].Weight {
		t.Errorf("llmbatch should be more prefill heavy than llmserve")
	}
}

func TestNewMLInferenceRejectsBadMix(t *testing.T) {
	for _, tc := range [][2]float64{{0, 1}, {1, 0}, {-1, 1}, {1, -1}, {nan(), 1}, {1e13, 1}} {
		if _, err := NewMLInference("bad", tc[0], tc[1]); err == nil {
			t.Errorf("NewMLInference(%v, %v) accepted", tc[0], tc[1])
		}
	}
}

func TestParsePhaseSpec(t *testing.T) {
	good := []struct {
		spec    string
		wantPre float64 // approximate prefill weight
	}{
		{"seq=1024,out=512", 2.0 / 3},
		{"seq=256, out=768", 0.25},
		{"prefill=1,decode=1", 0.5},
		{"prefill=0.333333,decode=0.666667", 1.0 / 3},
		{"name=mix,seq=100,out=300", 0.25},
		{" seq=1 , out=1 , name=tiny ", 0.5},
	}
	for _, tc := range good {
		w, err := ParsePhaseSpec(tc.spec)
		if err != nil {
			t.Errorf("ParsePhaseSpec(%q): %v", tc.spec, err)
			continue
		}
		if err := w.Validate(); err != nil {
			t.Errorf("ParsePhaseSpec(%q): invalid workload: %v", tc.spec, err)
		}
		if inOrderSum(w.Phases) != 1 {
			t.Errorf("ParsePhaseSpec(%q): weights sum %.17g, want exactly 1", tc.spec, inOrderSum(w.Phases))
		}
		if got := w.Phases[0].Weight; got < tc.wantPre-1e-6 || got > tc.wantPre+1e-6 {
			t.Errorf("ParsePhaseSpec(%q): prefill weight %v, want ~%v", tc.spec, got, tc.wantPre)
		}
	}
	bad := []string{
		"",
		"seq=1024",
		"out=512",
		"seq=0,out=512",
		"seq=-5,out=512",
		"seq=abc,out=512",
		"seq=1024,out=512,prefill=1,decode=1",
		"prefill=1",
		"decode=1",
		"prefill=0,decode=1",
		"prefill=1,decode=1,decode=2",
		"name=a,name=b,seq=1,out=1",
		"bogus=1",
		"seq=1024,out",
		"=,=",
		"seq=NaN,out=2",
		"seq=+Inf,out=2",
		"prefill=1e300,decode=1e-300",
	}
	for _, spec := range bad {
		if w, err := ParsePhaseSpec(spec); err == nil {
			t.Errorf("ParsePhaseSpec(%q) accepted: %+v", spec, w)
		}
	}
}

func TestAllWorkloadsSuperset(t *testing.T) {
	all := AllWorkloads()
	if len(all) != len(Catalog())+len(MLInference()) {
		t.Fatalf("AllWorkloads len %d, want catalog %d + ml %d",
			len(all), len(Catalog()), len(MLInference()))
	}
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
	if w, err := ByName("llmserve"); err != nil || w.Name != "llmserve" {
		t.Fatalf("ByName(llmserve) = %v, %v", w.Name, err)
	}
	found := false
	for _, w := range PhasedWorkloads() {
		if w.Kind != hw.KindGPU || len(w.Phases) < 2 {
			t.Errorf("PhasedWorkloads returned %s: kind %v, %d phases", w.Name, w.Kind, len(w.Phases))
		}
		if w.Name == "llmchat" {
			found = true
		}
	}
	if !found {
		t.Errorf("PhasedWorkloads missing llmchat")
	}
	// The paper catalog is untouched: figure reproductions depend on it.
	for _, w := range Catalog() {
		if strings.HasPrefix(w.Name, "llm") {
			t.Errorf("ML workload %q leaked into the Table 3 catalog", w.Name)
		}
	}
}

// FuzzParsePhaseSpec drives the spec grammar with arbitrary input: no
// panic, and any accepted spec must yield a workload that validates
// with a bit-exact weight sum.
func FuzzParsePhaseSpec(f *testing.F) {
	for _, seed := range []string{
		"seq=1024,out=512",
		"prefill=2,decode=1",
		"name=x,seq=1,out=1",
		"seq=1e6,out=1e-6",
		"seq=,out=",
		"prefill=NaN,decode=1",
		"a=b,c=d",
		",,,",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		w, err := ParsePhaseSpec(spec)
		if err != nil {
			return
		}
		if verr := w.Validate(); verr != nil {
			t.Fatalf("accepted spec %q yields invalid workload: %v", spec, verr)
		}
		if got := inOrderSum(w.Phases); got != 1 {
			t.Fatalf("accepted spec %q: weight sum %.17g, want exactly 1", spec, got)
		}
	})
}
