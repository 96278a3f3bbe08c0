package catalogtest

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/calibrate"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

func TestMain(m *testing.M) { Main(m) }

// TestLookupsAllocateNothing holds both catalog lookups at zero
// allocations: they hand out the shared entries, never copies.
func TestLookupsAllocateNothing(t *testing.T) {
	var p hw.Platform
	var w workload.Workload
	if n := testing.AllocsPerRun(200, func() { p, _ = hw.PlatformByName("ivybridge") }); n != 0 {
		t.Errorf("PlatformByName allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(200, func() { w, _ = workload.ByName("llmbatch") }); n != 0 {
		t.Errorf("ByName allocates %v times per call", n)
	}
	if p.CPU == nil || len(w.Phases) == 0 {
		t.Fatal("lookups returned empty entries")
	}
}

// TestClonesAreDeep writes every leaf of a Clone of every catalog entry
// and requires the catalog unchanged, and the clone changed.
func TestClonesAreDeep(t *testing.T) {
	perturbAll := func(v reflect.Value, name string) {
		var paths []string
		LeafPaths(t, v, name, &paths)
		for _, path := range paths {
			if !Perturb(v, path, name) {
				t.Fatalf("leaf %s not found for perturbation", path)
			}
		}
	}
	for _, want := range hw.AllPlatforms() {
		p, err := hw.PlatformByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		c := p.Clone()
		perturbAll(reflect.ValueOf(&c).Elem(), "Platform")
		if reflect.DeepEqual(c, want) {
			t.Errorf("%s: perturbing every leaf left the clone equal to the entry", want.Name)
		}
	}
	for _, want := range workload.AllWorkloads() {
		w, err := workload.ByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		c := w.Clone()
		perturbAll(reflect.ValueOf(&c).Elem(), "Workload")
		if reflect.DeepEqual(c, want) {
			t.Errorf("%s: perturbing every leaf left the clone equal to the entry", want.Name)
		}
	}
	if err := intact(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentLookupsAndReads looks up, compares and simulates every
// catalog pair from several goroutines at once, and calibrates a
// looked-up workload in each. Under the race detector it proves that the
// readers of a shared entry (the simulator, calibration's copy) write
// nothing to it.
func TestConcurrentLookupsAndReads(t *testing.T) {
	platforms, workloads := hw.AllPlatforms(), workload.AllWorkloads()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, fp := range platforms {
				p, err := hw.PlatformByName(fp.Name)
				if err != nil || !reflect.DeepEqual(p, fp) {
					errs <- fmt.Errorf("platform %s: lookup differs from a fresh build (%v)", fp.Name, err)
					return
				}
				for j, fw := range workloads {
					if (i+j+g)%2 != 0 || fw.Kind != p.Kind {
						continue
					}
					w, err := workload.ByName(fw.Name)
					if err != nil || !reflect.DeepEqual(w, fw) {
						errs <- fmt.Errorf("workload %s: lookup differs from a fresh build (%v)", fw.Name, err)
						return
					}
					if p.Kind == hw.KindCPU {
						_, err = sim.RunCPU(p, &w, 150, 60)
					} else {
						_, err = sim.RunGPUMemPower(p, &w, p.GPU.MaxCap, 60)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
			p, _ := hw.PlatformByName("ivybridge")
			w, _ := workload.ByName("stream")
			if _, err := calibrate.Fit(p, w, calibrate.Anchors{ProcPower: 109, MemPower: 116}); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := intact(); err != nil {
		t.Fatal(err)
	}
}

// TestIntactCatchesLadderWrites writes through each entry's shared
// ladder and requires intact to name the entry, then restores it.
func TestIntactCatchesLadderWrites(t *testing.T) {
	for _, want := range hw.AllPlatforms() {
		p, err := hw.PlatformByName(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		var bins []hw.Bin
		if p.CPU != nil {
			bins = p.CPU.PStateBins()
		} else {
			bins = p.GPU.SMClockBins()
		}
		coef := bins[0].Coef
		bins[0].Coef *= 2
		err = intact()
		bins[0].Coef = coef
		if err == nil || !strings.Contains(err.Error(), want.Name) {
			t.Errorf("%s: a write through the shared ladder gave %v, want an error naming the entry", want.Name, err)
		}
	}
	if err := intact(); err != nil {
		t.Fatal(err)
	}
}
