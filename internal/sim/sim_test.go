package sim

import (
	"errors"
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/nvgov"
	"repro/internal/rapl"
	"repro/internal/units"
	"repro/internal/workload"
)

func mustWorkload(t *testing.T, name string) *workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return &w
}

func runCPU(t *testing.T, platform, wl string, proc, mem units.Power) Result {
	t.Helper()
	p, err := hw.PlatformByName(platform)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCPU(p, mustWorkload(t, wl), proc, mem)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runGPU(t *testing.T, platform, wl string, cap units.Power, memClock units.Frequency) Result {
	t.Helper()
	p, err := hw.PlatformByName(platform)
	if err != nil {
		t.Fatal(err)
	}
	if memClock == 0 {
		memClock = p.GPU.Mem.ClockNom
	}
	res, err := RunGPU(p, mustWorkload(t, wl), cap, memClock)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunCPUInputValidation(t *testing.T) {
	ivy, _ := hw.PlatformByName("ivybridge")
	xp, _ := hw.PlatformByName("titanxp")
	cpuW := mustWorkload(t, "stream")
	gpuW := mustWorkload(t, "sgemm")
	if _, err := RunCPU(xp, cpuW, 100, 100); err == nil {
		t.Error("GPU platform accepted by RunCPU")
	}
	if _, err := RunCPU(ivy, gpuW, 100, 100); err == nil {
		t.Error("GPU workload accepted by RunCPU")
	}
	if _, err := RunGPU(ivy, gpuW, 250, 5*units.Gigahertz); err == nil {
		t.Error("CPU platform accepted by RunGPU")
	}
	if _, err := RunGPU(xp, cpuW, 250, 5*units.Gigahertz); err == nil {
		t.Error("CPU workload accepted by RunGPU")
	}
	if _, err := RunGPU(xp, gpuW, 50, 5*units.Gigahertz); err == nil {
		t.Error("cap below MinCap accepted by RunGPU")
	}
}

func TestRunCPUDeterministic(t *testing.T) {
	a := runCPU(t, "ivybridge", "mg", 120, 100)
	b := runCPU(t, "ivybridge", "mg", 120, 100)
	if a.Perf != b.Perf || a.ProcPower != b.ProcPower || a.MemPower != b.MemPower {
		t.Errorf("simulator not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunCPUUncapped(t *testing.T) {
	// Uncapped STREAM should reach near its pattern-limited bandwidth:
	// 0.8 * 102.4 GB/s ~ 82 GB/s.
	res := runCPU(t, "ivybridge", "stream", 0, 0)
	if res.Perf < 75 || res.Perf > 85 {
		t.Errorf("uncapped STREAM = %.1f GB/s, want ~82", res.Perf)
	}
	if res.Throttled || res.AtFloor {
		t.Error("uncapped run should not throttle")
	}
	// Per-core bandwidth ~4 GB/s, matching Figure 1a's magnitude.
	perCore := res.Perf / 20
	if perCore < 3.5 || perCore > 4.5 {
		t.Errorf("per-core bandwidth = %.2f GB/s, want ~4", perCore)
	}
}

func TestRunCPUUncappedDGEMM(t *testing.T) {
	// Uncapped DGEMM approaches 0.9 * 400 = 360 GFLOP/s.
	res := runCPU(t, "ivybridge", "dgemm", 0, 0)
	if res.Perf < 300 || res.Perf > 365 {
		t.Errorf("uncapped DGEMM = %.1f GFLOP/s, want 300-365", res.Perf)
	}
	// DGEMM is compute bound: high compute utilization, low stall.
	if res.ComputeUtil < 0.9 {
		t.Errorf("DGEMM compute util = %.2f, want >0.9", res.ComputeUtil)
	}
	if res.StallFrac > 0.2 {
		t.Errorf("DGEMM stall = %.2f, want low", res.StallFrac)
	}
}

func TestRunCPUSRACalibration(t *testing.T) {
	// Uncapped SRA actual powers should match the paper's scenario-I
	// anchors: ~108-112 W CPU, ~112-120 W DRAM.
	res := runCPU(t, "ivybridge", "sra", 0, 0)
	if res.ProcPower.Watts() < 100 || res.ProcPower.Watts() > 118 {
		t.Errorf("SRA CPU power = %v, want 100-118 W", res.ProcPower)
	}
	if res.MemPower.Watts() < 108 || res.MemPower.Watts() > 124 {
		t.Errorf("SRA DRAM power = %v, want 108-124 W", res.MemPower)
	}
	// SRA is heavily memory bound.
	if res.StallFrac < 0.8 {
		t.Errorf("SRA stall = %.2f, want ~1", res.StallFrac)
	}
}

func TestRunCPURespectsCapsInPStateRegion(t *testing.T) {
	// Allocation in the DVFS region: both actual powers stay at or under
	// their caps.
	for _, wl := range []string{"sra", "stream", "dgemm", "mg", "bt"} {
		for _, procCap := range []units.Power{80, 100, 130} {
			for _, memCap := range []units.Power{80, 100, 120} {
				res := runCPU(t, "ivybridge", wl, procCap, memCap)
				if res.AtFloor {
					continue // cap below floor: explicitly flagged as not respected
				}
				if res.ProcPower > procCap+1 {
					t.Errorf("%s proc=%v mem=%v: CPU power %v over cap", wl, procCap, memCap, res.ProcPower)
				}
				if res.MemPower > memCap+1 {
					t.Errorf("%s proc=%v mem=%v: DRAM power %v over cap", wl, procCap, memCap, res.MemPower)
				}
			}
		}
	}
}

func TestRunCPUPerfMonotoneInProcCap(t *testing.T) {
	// With plentiful memory power, performance must be non-decreasing in
	// the CPU cap.
	prev := -1.0
	for cap := units.Power(50); cap <= 200; cap += 5 {
		res := runCPU(t, "ivybridge", "dgemm", cap, 0)
		if res.Perf < prev-1e-6 {
			t.Fatalf("DGEMM perf not monotone at proc cap %v: %v < %v", cap, res.Perf, prev)
		}
		prev = res.Perf
	}
}

func TestRunCPUPerfMonotoneInMemCap(t *testing.T) {
	prev := -1.0
	for cap := units.Power(60); cap <= 130; cap += 2 {
		res := runCPU(t, "ivybridge", "stream", 0, cap)
		if res.Perf < prev-1e-6 {
			t.Fatalf("STREAM perf not monotone at mem cap %v: %v < %v", cap, res.Perf, prev)
		}
		prev = res.Perf
	}
}

func TestRunCPUScenarioIVMemoryUnderConsumes(t *testing.T) {
	// Scenario IV: CPU seriously constrained (T-states), memory
	// over-budgeted. DRAM must draw far less than its allocation because
	// the throttled CPU issues few requests.
	res := runCPU(t, "ivybridge", "sra", 56, 184)
	if !res.Throttled {
		t.Fatalf("56 W CPU cap should engage T-states: %+v", res)
	}
	if res.MemPower.Watts() > 0.8*184 {
		t.Errorf("throttled CPU: DRAM power %v should be well under its 184 W budget", res.MemPower)
	}
}

func TestRunCPUScenarioIIICPUUnderConsumes(t *testing.T) {
	// Scenario III: memory constrained, CPU over-budgeted. The stalled
	// CPU draws less than its generous cap.
	res := runCPU(t, "ivybridge", "stream", 170, 75)
	if res.ProcPower.Watts() > 150 {
		t.Errorf("memory-starved CPU power = %v, should sit below its cap", res.ProcPower)
	}
	// Memory draws close to its 75 W cap.
	if res.MemPower.Watts() < 70 || res.MemPower.Watts() > 76 {
		t.Errorf("constrained DRAM power = %v, want ~75", res.MemPower)
	}
}

func TestRunCPUStreamSplitSpreadAt208W(t *testing.T) {
	// Figure 1a: with a 208 W budget, the best split beats the worst by
	// a large factor (paper reports up to ~30x).
	best, worst := 0.0, math.Inf(1)
	for procCap := units.Power(52); procCap <= 140; procCap += 4 {
		res := runCPU(t, "ivybridge", "stream", procCap, 208-procCap)
		if res.Perf > best {
			best = res.Perf
		}
		if res.Perf < worst {
			worst = res.Perf
		}
	}
	if spread := best / worst; spread < 10 {
		t.Errorf("STREAM 208 W split spread = %.1fx, want >10x (paper ~30x)", spread)
	}
}

func TestRunCPUMultiPhaseAggregation(t *testing.T) {
	res := runCPU(t, "ivybridge", "bt", 150, 100)
	if len(res.Phases) != 4 {
		t.Fatalf("BT should have 4 phase results, got %d", len(res.Phases))
	}
	// Aggregate rate is the weighted harmonic mean: it lies between the
	// slowest and fastest phase rates.
	lo, hi := math.Inf(1), 0.0
	for _, pr := range res.Phases {
		r := pr.Rate.OpsPerSecond()
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	got := res.UnitRate.OpsPerSecond()
	if got < lo || got > hi {
		t.Errorf("aggregate rate %v outside phase range [%v, %v]", got, lo, hi)
	}
}

func TestRunGPUUncappedSGEMM(t *testing.T) {
	// SGEMM at the 300 W max cap is still power limited (paper: demand
	// exceeds 300 W) but delivers most of the card's 12.1 TFLOP/s.
	res := runGPU(t, "titanxp", "sgemm", 300, 0)
	if !res.Throttled {
		t.Error("SGEMM at 300 W should still be power limited")
	}
	if res.Perf < 8000 || res.Perf > 11500 {
		t.Errorf("SGEMM at 300 W = %.0f GFLOP/s, want 8000-11500", res.Perf)
	}
}

func TestRunGPUStreamBandwidth(t *testing.T) {
	// GPU STREAM at a roomy cap reaches its pattern-limited bandwidth:
	// 0.82 * 548 ~ 449 GB/s.
	res := runGPU(t, "titanxp", "gpustream", 250, 0)
	if res.Perf < 400 || res.Perf > 460 {
		t.Errorf("GPU STREAM = %.0f GB/s, want ~449", res.Perf)
	}
}

func TestRunGPUTotalTracksCap(t *testing.T) {
	// Paper Section 4: on GPUs the actual total power matches the cap
	// (automatic reclaim) unless the cap exceeds the demand.
	res := runGPU(t, "titanxp", "sgemm", 200, 0)
	if math.Abs(res.TotalPower.Watts()-200) > 12 {
		t.Errorf("SGEMM at 200 W cap drew %v, want ~cap (reclaim)", res.TotalPower)
	}
	// MiniFE demand ~175 W: at a 250 W cap the draw stays at demand.
	res = runGPU(t, "titanxp", "minife", 250, 0)
	if res.TotalPower.Watts() > 210 {
		t.Errorf("MiniFE at 250 W drew %v, want under demand ~200", res.TotalPower)
	}
}

func TestRunGPUMemClockTradeoffSGEMM(t *testing.T) {
	// Compute-intensive SGEMM under a tight cap: lowering the memory
	// clock frees power for the SMs and raises performance (category II).
	p, _ := hw.PlatformByName("titanxp")
	low := runGPU(t, "titanxp", "sgemm", 160, p.GPU.Mem.ClockMin)
	nom := runGPU(t, "titanxp", "sgemm", 160, p.GPU.Mem.ClockNom)
	if low.Perf <= nom.Perf {
		t.Errorf("SGEMM at 160 W: min mem clock %.0f should beat nominal %.0f", low.Perf, nom.Perf)
	}
}

func TestRunGPUMemClockTradeoffStream(t *testing.T) {
	// Memory-intensive STREAM at a large cap: higher memory clock wins
	// (category III).
	p, _ := hw.PlatformByName("titanxp")
	low := runGPU(t, "titanxp", "gpustream", 250, p.GPU.Mem.ClockMin)
	high := runGPU(t, "titanxp", "gpustream", 250, p.GPU.Mem.ClockMax)
	if high.Perf <= low.Perf {
		t.Errorf("STREAM at 250 W: max mem clock %.0f should beat min %.0f", high.Perf, low.Perf)
	}
}

func TestRunGPUPerfMonotoneInCap(t *testing.T) {
	prev := -1.0
	for cap := units.Power(125); cap <= 300; cap += 5 {
		res := runGPU(t, "titanxp", "sgemm", cap, 0)
		if res.Perf < prev-1e-6 {
			t.Fatalf("SGEMM perf not monotone at cap %v", cap)
		}
		prev = res.Perf
	}
}

func TestRunGPUMemPowerBudgetKnob(t *testing.T) {
	p, _ := hw.PlatformByName("titanxp")
	w := mustWorkload(t, "gpustream")
	res, err := RunGPUMemPower(p, w, 250, p.GPU.Mem.PowerMax)
	if err != nil {
		t.Fatal(err)
	}
	// Full memory budget selects the max clock.
	if res.Phases[0].MemBandwidth < 400*units.GBps {
		t.Errorf("full mem budget bandwidth = %v", res.Phases[0].MemBandwidth)
	}
	resLow, err := RunGPUMemPower(p, w, 250, p.GPU.Mem.PowerMin)
	if err != nil {
		t.Fatal(err)
	}
	if resLow.Perf >= res.Perf {
		t.Error("min memory budget should slow STREAM down")
	}
	if _, err := RunGPUMemPower(hw.IvyBridge(), w, 250, 50); err == nil {
		t.Error("CPU platform accepted")
	}
}

func TestRunGPUTitanVMemoryBound(t *testing.T) {
	// Paper: on Titan V applications are generally memory bounded and
	// performance increases with memory power allocation.
	p, _ := hw.PlatformByName("titanv")
	low := runGPU(t, "titanv", "minife", 200, p.GPU.Mem.ClockMin)
	high := runGPU(t, "titanv", "minife", 200, p.GPU.Mem.ClockMax)
	if high.Perf <= low.Perf {
		t.Errorf("Titan V MiniFE should gain from memory clock: %v vs %v", low.Perf, high.Perf)
	}
	// And the performance bound does not change with the cap in the
	// studied range.
	a := runGPU(t, "titanv", "minife", 150, 0)
	b := runGPU(t, "titanv", "minife", 250, 0)
	if math.Abs(a.Perf-b.Perf) > 0.01*a.Perf {
		t.Errorf("Titan V MiniFE perf varies with cap: %v vs %v", a.Perf, b.Perf)
	}
}

func TestAggregateZeroRate(t *testing.T) {
	w := mustWorkload(t, "stream")
	res := aggregate(w, []PhaseResult{{Weight: 1, Rate: 0}})
	if res.Perf != 0 || res.UnitRate != 0 {
		t.Errorf("zero-rate aggregate = %+v", res)
	}
}

func TestResultUtilizationsInRange(t *testing.T) {
	for _, wl := range []string{"sra", "stream", "dgemm", "mg"} {
		res := runCPU(t, "ivybridge", wl, 120, 100)
		if res.ComputeUtil < 0 || res.ComputeUtil > 1 || res.MemUtil < 0 || res.MemUtil > 1 {
			t.Errorf("%s: utilizations out of range: %+v", wl, res)
		}
		if res.StallFrac < 0 || res.StallFrac > 1 {
			t.Errorf("%s: stall out of range", wl)
		}
	}
}

func TestRunGPUOffsets(t *testing.T) {
	p, _ := hw.PlatformByName("titanxp")
	w := mustWorkload(t, "gpustream")
	// Negative SM offset slows the card down for memory-bound STREAM
	// (issue limits bite at deep downclocks).
	slow, err := RunGPUOffsets(p, w, 250, -(p.GPU.SMClockNom - p.GPU.SMClockMin), 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunGPUOffsets(p, w, 250, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Perf >= fast.Perf {
		t.Errorf("min SM clock %v should slow STREAM below nominal %v", slow.Perf, fast.Perf)
	}
	// Negative memory offset lowers bandwidth directly.
	lowMem, err := RunGPUOffsets(p, w, 250, 0, -(p.GPU.Mem.ClockNom - p.GPU.Mem.ClockMin))
	if err != nil {
		t.Fatal(err)
	}
	if lowMem.Perf >= fast.Perf {
		t.Error("min memory clock should reduce STREAM bandwidth")
	}
	// Kind checks.
	ivy, _ := hw.PlatformByName("ivybridge")
	if _, err := RunGPUOffsets(ivy, w, 250, 0, 0); err == nil {
		t.Error("CPU platform accepted")
	}
	cw := mustWorkload(t, "stream")
	if _, err := RunGPUOffsets(p, cw, 250, 0, 0); err == nil {
		t.Error("CPU workload accepted")
	}
	if _, err := RunGPUOffsets(p, w, 10, 0, 0); err == nil {
		t.Error("cap below MinCap accepted")
	}
}

func TestRunCPUOptsAblationSwitches(t *testing.T) {
	p, _ := hw.PlatformByName("ivybridge")
	w := mustWorkload(t, "sra")
	// Duty gating off: a throttled CPU no longer suppresses DRAM traffic.
	full, err := RunCPU(p, w, 56, 184)
	if err != nil {
		t.Fatal(err)
	}
	ungated, err := RunCPUOpts(p, w, 56, 184, Options{DisableDutyGating: true})
	if err != nil {
		t.Fatal(err)
	}
	if ungated.MemPower <= full.MemPower {
		t.Errorf("gating off should raise DRAM power: %v vs %v", ungated.MemPower, full.MemPower)
	}
	// ForceOverlap to roofline: performance can only improve.
	base, err := RunCPU(p, w, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	roof, err := RunCPUOpts(p, w, 0, 0, Options{ForceOverlap: 64})
	if err != nil {
		t.Fatal(err)
	}
	if roof.Perf < base.Perf {
		t.Errorf("roofline %v below calibrated %v", roof.Perf, base.Perf)
	}
	// Invalid platform propagates.
	bad := p
	bad.CPU = nil
	if _, err := RunCPUOpts(bad, w, 0, 0, Options{}); err == nil {
		t.Error("invalid platform accepted")
	}
}

// TestUnrepresentableCapsRejected: a CPU run refuses a package or DRAM
// cap the limit register cannot hold (NaN, +Inf, at or above
// rapl.MaxLimit) with the controller's typed error instead of running
// at the floor, while caps at or below zero, −Inf included, still run
// uncapped; every GPU entry point refuses a NaN board cap with the
// governor's typed range error.
func TestUnrepresentableCapsRejected(t *testing.T) {
	cpu := hw.IvyBridge()
	w := mustWorkload(t, "stream")
	for _, bad := range []units.Power{units.Power(math.NaN()), units.Power(math.Inf(1)), 1e300, rapl.MaxLimit} {
		for _, d := range []rapl.Domain{rapl.DomainPackage, rapl.DomainDRAM} {
			proc, mem := units.Power(150), units.Power(50)
			if d == rapl.DomainPackage {
				proc = bad
			} else {
				mem = bad
			}
			_, err := RunCPU(cpu, w, proc, mem)
			var lre *rapl.LimitRangeError
			if !errors.Is(err, rapl.ErrLimitOutOfRange) || !errors.As(err, &lre) || lre.Domain != d {
				t.Fatalf("RunCPU(%v, %v): error %v, want a %v *rapl.LimitRangeError", proc, mem, err, d)
			}
		}
	}
	uncapped := runCPU(t, "ivybridge", "stream", 0, 0)
	for _, off := range []units.Power{units.Power(math.Inf(-1)), -5} {
		if got := runCPU(t, "ivybridge", "stream", off, off); got.Perf != uncapped.Perf || got.AtFloor {
			t.Fatalf("caps %v: perf %v (at floor %v), uncapped %v", off, got.Perf, got.AtFloor, uncapped.Perf)
		}
	}

	gpu := hw.TitanXP()
	gw := mustWorkload(t, "gpustream")
	nan := units.Power(math.NaN())
	runs := map[string]func() (Result, error){
		"RunGPU":         func() (Result, error) { return RunGPU(gpu, gw, nan, gpu.GPU.Mem.ClockNom) },
		"RunGPUMemPower": func() (Result, error) { return RunGPUMemPower(gpu, gw, nan, 40) },
		"RunGPUOffsets":  func() (Result, error) { return RunGPUOffsets(gpu, gw, nan, 0, 0) },
	}
	for name, run := range runs {
		_, err := run()
		var cre *nvgov.CapRangeError
		if !errors.Is(err, nvgov.ErrCapOutOfRange) || !errors.As(err, &cre) {
			t.Fatalf("%s at a NaN cap: error %v, want a *nvgov.CapRangeError", name, err)
		}
	}
}
