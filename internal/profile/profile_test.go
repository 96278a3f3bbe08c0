package profile

import (
	"testing"

	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/workload"
)

func profileCPU(t *testing.T, platform, wl string) CPUProfile {
	t.Helper()
	p, err := hw.PlatformByName(platform)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileCPU(p, w)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func profileGPU(t *testing.T, platform, wl string) GPUProfile {
	t.Helper()
	p, err := hw.PlatformByName(platform)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ProfileGPU(p, w)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestProfileCPUKindChecks(t *testing.T) {
	xp, _ := hw.PlatformByName("titanxp")
	w, _ := workload.ByName("stream")
	if _, err := ProfileCPU(xp, w); err == nil {
		t.Error("GPU platform accepted by ProfileCPU")
	}
	ivy, _ := hw.PlatformByName("ivybridge")
	gw, _ := workload.ByName("sgemm")
	if _, err := ProfileCPU(ivy, gw); err == nil {
		t.Error("GPU workload accepted by ProfileCPU")
	}
	if _, err := ProfileGPU(ivy, w); err == nil {
		t.Error("CPU platform accepted by ProfileGPU")
	}
}

func TestProfileCPUSRAMatchesPaperAnchors(t *testing.T) {
	prof := profileCPU(t, "ivybridge", "sra")
	cp := prof.Critical
	// Paper anchors (Section 3.2/5.1 for RandomAccess on IvyBridge):
	// CPU max ~108-112 W, floor 48 W; DRAM max ~116 W, floor ~66 W.
	if cp.CPUMax.Watts() < 100 || cp.CPUMax.Watts() > 118 {
		t.Errorf("P_cpu_L1 = %v, want ~108-112", cp.CPUMax)
	}
	if cp.CPUFloor.Watts() != 48 {
		t.Errorf("P_cpu_L4 = %v, want 48", cp.CPUFloor)
	}
	if cp.MemMax.Watts() < 108 || cp.MemMax.Watts() > 124 {
		t.Errorf("P_mem_L1 = %v, want ~116", cp.MemMax)
	}
	if cp.MemFloor.Watts() != 66 {
		t.Errorf("P_mem_L3 = %v, want 66", cp.MemFloor)
	}
	// Orderings hold by construction.
	if err := cp.Validate(); err != nil {
		t.Error(err)
	}
	// Lightweight: a couple dozen runs at most, far from a full sweep.
	if prof.Runs > 40 {
		t.Errorf("profiling cost %d runs, want lightweight (<40)", prof.Runs)
	}
}

func TestProfileCPUCriticalValuesSeparateWorkloads(t *testing.T) {
	dgemm := profileCPU(t, "ivybridge", "dgemm")
	sra := profileCPU(t, "ivybridge", "sra")
	// DGEMM demands much more CPU power and much less DRAM power.
	if dgemm.Critical.CPUMax <= sra.Critical.CPUMax {
		t.Errorf("DGEMM CPU demand %v should exceed SRA %v",
			dgemm.Critical.CPUMax, sra.Critical.CPUMax)
	}
	if dgemm.Critical.MemMax >= sra.Critical.MemMax {
		t.Errorf("DGEMM DRAM demand %v should sit below SRA %v",
			dgemm.Critical.MemMax, sra.Critical.MemMax)
	}
	// Hardware floors are workload independent.
	if dgemm.Critical.CPUFloor != sra.Critical.CPUFloor {
		t.Error("P_cpu_L4 must be workload independent")
	}
	if dgemm.Critical.MemFloor != sra.Critical.MemFloor {
		t.Error("P_mem_L3 must be workload independent")
	}
}

func TestProfileCPUAllWorkloadsAllPlatforms(t *testing.T) {
	for _, platform := range []string{"ivybridge", "haswell"} {
		for _, w := range workload.CPUWorkloads() {
			prof := profileCPU(t, platform, w.Name)
			if err := prof.Critical.Validate(); err != nil {
				t.Errorf("%s/%s: %v", platform, w.Name, err)
			}
			if prof.UncappedPerf <= 0 {
				t.Errorf("%s/%s: non-positive uncapped perf", platform, w.Name)
			}
			if prof.Critical.ProductiveThreshold() <= 0 {
				t.Errorf("%s/%s: bad productive threshold", platform, w.Name)
			}
		}
	}
}

func TestProfileGPUSGEMMComputeIntensive(t *testing.T) {
	prof := profileGPU(t, "titanxp", "sgemm")
	// SGEMM demands more than the 300 W max: TotMax ~300 and flagged
	// compute intensive (paper Section 5.2).
	if !prof.ComputeIntensive {
		t.Errorf("SGEMM should be compute intensive: TotMax=%v", prof.TotMax)
	}
	if prof.TotMax.Watts() < 280 {
		t.Errorf("SGEMM TotMax = %v, want ~300", prof.TotMax)
	}
	// TotRef (SM at min clock) sits well below TotMax.
	if prof.TotRef >= prof.TotMax {
		t.Errorf("TotRef %v should be below TotMax %v", prof.TotRef, prof.TotMax)
	}
	if prof.Runs != 2 {
		t.Errorf("GPU profile cost %d runs, want 2", prof.Runs)
	}
}

func TestProfileGPUMiniFEMemoryIntensive(t *testing.T) {
	prof := profileGPU(t, "titanxp", "minife")
	if prof.ComputeIntensive {
		t.Errorf("MiniFE should not be compute intensive: TotMax=%v", prof.TotMax)
	}
	// Demand flattens around the paper's ~180 W.
	if prof.TotMax.Watts() < 160 || prof.TotMax.Watts() > 210 {
		t.Errorf("MiniFE TotMax = %v, want ~180", prof.TotMax)
	}
	// Card constants pass through.
	xp, _ := hw.PlatformByName("titanxp")
	if prof.MemMin != xp.GPU.Mem.PowerMin || prof.MemMax != xp.GPU.Mem.PowerMax {
		t.Error("card memory power constants not propagated")
	}
}

func TestProfileGPUAllWorkloadsBothCards(t *testing.T) {
	for _, platform := range []string{"titanxp", "titanv"} {
		for _, w := range workload.GPUWorkloads() {
			prof := profileGPU(t, platform, w.Name)
			if prof.TotMax <= 0 || prof.TotRef <= 0 {
				t.Errorf("%s/%s: non-positive totals", platform, w.Name)
			}
			if prof.UncappedPerf <= 0 {
				t.Errorf("%s/%s: non-positive perf", platform, w.Name)
			}
		}
	}
}

func TestProfileCPUL2BracketsSensible(t *testing.T) {
	prof := profileCPU(t, "ivybridge", "stream")
	cp := prof.Critical
	// L2 (lowest P-state) must sit strictly between the floor and max for
	// a workload with real CPU demand.
	if cp.CPULowPState <= cp.CPUFloor || cp.CPULowPState >= cp.CPUMax {
		t.Errorf("P_cpu_L2 = %v outside (%v, %v)", cp.CPULowPState, cp.CPUFloor, cp.CPUMax)
	}
	// L3 (deepest throttle) between floor and L2.
	if cp.CPULowThrottle < cp.CPUFloor || cp.CPULowThrottle > cp.CPULowPState {
		t.Errorf("P_cpu_L3 = %v outside [%v, %v]", cp.CPULowThrottle, cp.CPUFloor, cp.CPULowPState)
	}
	// Memory at deep throttle sits at or above the floor and below max.
	if cp.MemAtCPULow < cp.MemFloor || cp.MemAtCPULow > cp.MemMax {
		t.Errorf("P_mem_L2 = %v outside [%v, %v]", cp.MemAtCPULow, cp.MemFloor, cp.MemMax)
	}
}

// TestProfilesMemoizedOnEngine: a pair is profiled once per engine. A
// repeat of ProfileCPU or ProfileGPU issues no engine request and
// returns the profile the uncached serial engine computes; another
// demand margin is profiled afresh.
func TestProfilesMemoizedOnEngine(t *testing.T) {
	want := map[string]any{}
	serial := evalpool.SetDefault(evalpool.Serial())
	want["cpu"] = profileCPU(t, "haswell", "mg")
	want["gpu"] = profileGPU(t, "titanv", "minife")
	e := evalpool.New(evalpool.Options{Workers: 1})
	evalpool.SetDefault(e)
	defer evalpool.SetDefault(serial)

	for pass := 0; pass < 2; pass++ {
		before := e.Stats().Requests
		if got := profileCPU(t, "haswell", "mg"); got != want["cpu"] {
			t.Fatalf("pass %d: CPU profile %+v, serial engine %+v", pass, got, want["cpu"])
		}
		if got := profileGPU(t, "titanv", "minife"); got != want["gpu"] {
			t.Fatalf("pass %d: GPU profile %+v, serial engine %+v", pass, got, want["gpu"])
		}
		if n := e.Stats().Requests - before; (pass == 0) == (n == 0) {
			t.Fatalf("pass %d issued %d engine requests", pass, n)
		}
	}
	p, _ := hw.PlatformByName("haswell")
	w, _ := workload.ByName("mg")
	before := e.Stats().Requests
	exact, err := ProfileCPUWithMargin(p, w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Stats().Requests == before || exact == want["cpu"] {
		t.Fatal("a profile with another demand margin was served from the memo")
	}
}
