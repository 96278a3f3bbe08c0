package evalpool

import (
	"reflect"
	"testing"

	"repro/internal/catalogtest"
	"repro/internal/hw"
	"repro/internal/workload"
)

// TestFingerprintStableAcrossLookups pins the memo's cross-request
// reuse to content, not identity: a catalog pair and its deep Clone,
// equal in content but with fresh spec pointers and phase slices, must
// land in one key space, as must two lookups of the shared entry.
func TestFingerprintStableAcrossLookups(t *testing.T) {
	for _, p := range hw.AllPlatforms() {
		for _, w := range workload.AllWorkloads() {
			a := cpuProblem(t, p.Name, w.Name)
			b := clonedProblem(t, p.Name, w.Name)
			if a.Platform.CPU != nil && a.Platform.CPU == b.Platform.CPU ||
				a.Platform.GPU != nil && a.Platform.GPU == b.Platform.GPU ||
				&a.Workload.Phases[0] == &b.Workload.Phases[0] {
				t.Fatalf("%s/%s: the clone shares storage with the catalog; the test needs fresh pointers",
					p.Name, w.Name)
			}
			c := cpuProblem(t, p.Name, w.Name)
			if fa, fb, fc := a.fingerprint(), b.fingerprint(), c.fingerprint(); fa != fb || fa != fc {
				t.Errorf("%s/%s: fingerprints differ across copies: %#x, %#x, %#x",
					p.Name, w.Name, fa, fb, fc)
			}
		}
	}
}

// clonedProblem is cpuProblem on deep clones of the catalog entries, so
// a test may write to any of its fields.
func clonedProblem(t testing.TB, platform, wl string) Problem {
	t.Helper()
	pr := cpuProblem(t, platform, wl)
	return Problem{Platform: pr.Platform.Clone(), Workload: pr.Workload.Clone()}
}

// TestFingerprintCoversEveryField perturbs each leaf field of the
// problem — through the platform's CPU, DRAM and GPU pointers, the GPU
// memory spec, the workload and every phase — one at a time, each on a
// fresh clone, and requires a new fingerprint each time. Walking the
// structs by reflection means a field added later fails here until
// fingerprint hashes it, instead of silently aliasing distinct problems.
func TestFingerprintCoversEveryField(t *testing.T) {
	for _, pair := range [][2]string{{"ivybridge", "bt"}, {"h100", "llmbatch"}} {
		base := cpuProblem(t, pair[0], pair[1])
		want := base.fingerprint()
		var paths []string
		catalogtest.LeafPaths(t, reflect.ValueOf(&base).Elem(), "Problem", &paths)
		if len(paths) < 30 {
			t.Fatalf("%v: only %d leaf fields found", pair, len(paths))
		}
		for _, path := range paths {
			pr := clonedProblem(t, pair[0], pair[1])
			if !catalogtest.Perturb(reflect.ValueOf(&pr).Elem(), path, "Problem") {
				t.Fatalf("%v: leaf %s not found for perturbation", pair, path)
			}
			if pr.fingerprint() == want {
				t.Errorf("%v: perturbing %s leaves the fingerprint unchanged", pair, path)
			}
			if base.fingerprint() != want {
				t.Fatalf("%v: perturbing %s mutated the base problem", pair, path)
			}
		}
	}
}

// TestFingerprintMarksNilSpecs checks that an absent spec and a present
// zero-valued one hash differently, and that the same fields moved
// between specs do not alias.
func TestFingerprintMarksNilSpecs(t *testing.T) {
	base := Problem{Platform: hw.Platform{Name: "p", Kind: hw.KindGPU}}
	zeroGPU := base
	zeroGPU.Platform.GPU = &hw.GPUSpec{}
	zeroCPU := base
	zeroCPU.Platform.CPU = &hw.CPUSpec{}
	zeroDRAM := base
	zeroDRAM.Platform.DRAM = &hw.DRAMSpec{}
	seen := map[uint64]string{}
	for name, pr := range map[string]Problem{
		"nil": base, "gpu": zeroGPU, "cpu": zeroCPU, "dram": zeroDRAM,
	} {
		fp := pr.fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s and %s share fingerprint %#x", name, prev, fp)
		}
		seen[fp] = name
	}
}

// TestFingerprintDistinctAcrossCatalog: every catalog (platform,
// workload) pair, and every single-phase workload dyncoord profiles
// per phase (built here the way dyncoord wraps a phase: named
// "workload/phase", weight 1), gets its own fingerprint.
func TestFingerprintDistinctAcrossCatalog(t *testing.T) {
	seen := map[uint64]string{}
	add := func(pr Problem) {
		name := pr.Platform.Name + "|" + pr.Workload.Name
		fp := pr.fingerprint()
		if prev, dup := seen[fp]; dup {
			t.Fatalf("%s and %s share fingerprint %#x", name, prev, fp)
		}
		seen[fp] = name
	}
	for _, p := range hw.AllPlatforms() {
		for _, w := range workload.AllWorkloads() {
			add(Problem{Platform: p, Workload: w})
			if p.Kind != hw.KindCPU || w.Kind != hw.KindCPU {
				continue
			}
			for _, ph := range w.Phases {
				ph.Weight = 1
				pw := w
				pw.Name = w.Name + "/" + ph.Name
				pw.Phases = []workload.Phase{ph}
				add(Problem{Platform: p, Workload: pw})
			}
		}
	}
	if len(seen) < 50 {
		t.Fatalf("only %d problems fingerprinted", len(seen))
	}
}
