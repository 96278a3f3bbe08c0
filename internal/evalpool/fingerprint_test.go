package evalpool

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/hw"
	"repro/internal/workload"
)

// TestFingerprintStableAcrossLookups pins the memo's cross-request
// reuse: two independent catalog lookups of the same pair build fresh
// spec pointers and phase slices, yet must land in one key space.
func TestFingerprintStableAcrossLookups(t *testing.T) {
	for _, p := range hw.AllPlatforms() {
		for _, w := range workload.AllWorkloads() {
			a := cpuProblem(t, p.Name, w.Name)
			b := cpuProblem(t, p.Name, w.Name)
			if a.Platform.CPU != nil && a.Platform.CPU == b.Platform.CPU ||
				a.Platform.GPU != nil && a.Platform.GPU == b.Platform.GPU {
				t.Fatalf("%s: lookups share spec pointers; the test needs fresh ones", p.Name)
			}
			if fa, fb := a.fingerprint(), b.fingerprint(); fa != fb {
				t.Errorf("%s/%s: fingerprints differ across lookups: %#x vs %#x",
					p.Name, w.Name, fa, fb)
			}
		}
	}
}

// leafPaths lists the path of every leaf field reachable from v,
// following non-nil pointers and every slice element.
func leafPaths(t *testing.T, v reflect.Value, path string, out *[]string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			leafPaths(t, v.Elem(), path, out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			leafPaths(t, v.Field(i), path+"."+v.Type().Field(i).Name, out)
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			leafPaths(t, v.Index(i), path+"["+strconv.Itoa(i)+"]", out)
		}
	case reflect.String, reflect.Int, reflect.Float64:
		*out = append(*out, path)
	default:
		t.Fatalf("%s: unhandled field kind %s; teach fingerprint and this test about it",
			path, v.Kind())
	}
}

// perturb changes the leaf at path in v, returning false if the path
// was not found.
func perturb(v reflect.Value, path, at string) bool {
	switch v.Kind() {
	case reflect.Pointer:
		return !v.IsNil() && perturb(v.Elem(), path, at)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if perturb(v.Field(i), path, at+"."+v.Type().Field(i).Name) {
				return true
			}
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if perturb(v.Index(i), path, at+"["+strconv.Itoa(i)+"]") {
				return true
			}
		}
	case reflect.String:
		if at == path {
			v.SetString(v.String() + "x")
			return true
		}
	case reflect.Int:
		if at == path {
			v.SetInt(v.Int() + 1)
			return true
		}
	case reflect.Float64:
		if at == path {
			v.SetFloat(v.Float()*1.5 + 1)
			return true
		}
	}
	return false
}

// TestFingerprintCoversEveryField perturbs each leaf field of the
// problem — through the platform's CPU, DRAM and GPU pointers, the GPU
// memory spec, the workload and every phase — one at a time, and
// requires a new fingerprint each time. Walking the structs by
// reflection means a field added later fails here until fingerprint
// hashes it, instead of silently aliasing distinct problems.
func TestFingerprintCoversEveryField(t *testing.T) {
	for _, pair := range [][2]string{{"ivybridge", "bt"}, {"h100", "llmbatch"}} {
		base := cpuProblem(t, pair[0], pair[1])
		want := base.fingerprint()
		var paths []string
		leafPaths(t, reflect.ValueOf(&base).Elem(), "Problem", &paths)
		if len(paths) < 30 {
			t.Fatalf("%v: only %d leaf fields found", pair, len(paths))
		}
		for _, path := range paths {
			pr := cpuProblem(t, pair[0], pair[1])
			if !perturb(reflect.ValueOf(&pr).Elem(), path, "Problem") {
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
