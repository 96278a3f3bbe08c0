// Package validate runs consistency batteries over platforms and
// workloads — the checks a user should run after defining a custom
// hw.Platform or workload model before trusting simulation results. Each
// check mirrors an invariant the paper's analysis depends on: caps are
// respected, performance responds monotonically to power, the simulator
// is deterministic, and the critical power values are well ordered.
package validate

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/units"
	"repro/internal/workload"
)

// Issue is one failed check.
type Issue struct {
	// Check names the violated invariant.
	Check string
	// Detail describes the specific violation.
	Detail string
}

// String renders "check: detail".
func (i Issue) String() string { return i.Check + ": " + i.Detail }

// Platform runs the platform-level battery against a reference workload
// of the matching kind and returns every violation found (empty means the
// platform is consistent).
func Platform(p hw.Platform) []Issue {
	var issues []Issue
	if err := p.Validate(); err != nil {
		return []Issue{{Check: "spec", Detail: err.Error()}}
	}
	var w workload.Workload
	var err error
	switch p.Kind {
	case hw.KindCPU:
		w, err = workload.ByName("stream")
	case hw.KindGPU:
		w, err = workload.ByName("gpustream")
	}
	if err != nil {
		return []Issue{{Check: "reference-workload", Detail: err.Error()}}
	}
	issues = append(issues, Pair(p, w)...)
	return issues
}

// Pair runs the full battery for one platform/workload combination.
func Pair(p hw.Platform, w workload.Workload) []Issue {
	var issues []Issue
	if err := p.Validate(); err != nil {
		return []Issue{{Check: "platform-spec", Detail: err.Error()}}
	}
	if err := w.Validate(); err != nil {
		return []Issue{{Check: "workload-spec", Detail: err.Error()}}
	}
	if w.Kind != p.Kind {
		return []Issue{{Check: "kind", Detail: fmt.Sprintf(
			"workload %q is %v but platform %q is %v", w.Name, w.Kind, p.Name, p.Kind)}}
	}
	switch p.Kind {
	case hw.KindCPU:
		issues = append(issues, cpuBattery(p, w)...)
	case hw.KindGPU:
		issues = append(issues, gpuBattery(p, w)...)
	}
	return issues
}

func cpuBattery(p hw.Platform, w workload.Workload) []Issue {
	var issues []Issue
	run := func(proc, mem units.Power) (sim.Result, bool) {
		res, err := sim.RunCPU(p, &w, proc, mem)
		if err != nil {
			issues = append(issues, Issue{Check: "simulate", Detail: err.Error()})
			return sim.Result{}, false
		}
		return res, true
	}

	free, ok := run(0, 0)
	if !ok {
		return issues
	}
	if free.Perf <= 0 {
		issues = append(issues, Issue{Check: "progress",
			Detail: "uncapped run delivered zero performance"})
	}

	// Determinism.
	again, ok := run(0, 0)
	if ok && (again.Perf != free.Perf || again.TotalPower != free.TotalPower) {
		issues = append(issues, Issue{Check: "determinism",
			Detail: fmt.Sprintf("repeat run differs: %v vs %v", again.Perf, free.Perf)})
	}

	// Caps respected across a grid (above the hardware floors).
	floorP := p.CPU.IdlePower + 10
	floorM := p.DRAM.BackgroundPower + 4
	for _, proc := range []units.Power{floorP, floorP + 30, free.ProcPower + 10} {
		for _, mem := range []units.Power{floorM, floorM + 20, free.MemPower + 10} {
			res, ok := run(proc, mem)
			if !ok {
				continue
			}
			if !res.AtFloor && res.ProcPower > proc+1 {
				issues = append(issues, Issue{Check: "cpu-cap",
					Detail: fmt.Sprintf("cap %v drew %v", proc, res.ProcPower)})
			}
			if res.MemPower > mem+1 && mem > p.DRAM.BackgroundPower+p.DRAM.MinThrottleHeadroom {
				issues = append(issues, Issue{Check: "mem-cap",
					Detail: fmt.Sprintf("cap %v drew %v", mem, res.MemPower)})
			}
		}
	}

	// Monotonicity in each cap.
	prev := -1.0
	for cap := floorP; cap <= free.ProcPower+20; cap += 10 {
		res, ok := run(cap, 0)
		if !ok {
			break
		}
		if res.Perf < prev*(1-0.01) {
			issues = append(issues, Issue{Check: "cpu-monotone",
				Detail: fmt.Sprintf("perf dropped at cap %v", cap)})
			break
		}
		prev = res.Perf
	}
	prev = -1.0
	for cap := floorM; cap <= free.MemPower+20; cap += 6 {
		res, ok := run(0, cap)
		if !ok {
			break
		}
		if res.Perf < prev*(1-0.01) {
			issues = append(issues, Issue{Check: "mem-monotone",
				Detail: fmt.Sprintf("perf dropped at cap %v", cap)})
			break
		}
		prev = res.Perf
	}

	// Profile sanity.
	prof, err := profile.ProfileCPU(p, w)
	if err != nil {
		issues = append(issues, Issue{Check: "profile", Detail: err.Error()})
		return issues
	}
	if err := prof.Critical.Validate(); err != nil {
		issues = append(issues, Issue{Check: "critical-powers", Detail: err.Error()})
	}
	if prof.Critical.ProductiveThreshold() >= prof.Critical.CPUMax+prof.Critical.MemMax {
		issues = append(issues, Issue{Check: "threshold",
			Detail: "productive threshold at or above max demand"})
	}
	return issues
}

func gpuBattery(p hw.Platform, w workload.Workload) []Issue {
	var issues []Issue
	gpu := p.GPU
	prev := -1.0
	for cap := gpu.MinCap; cap <= gpu.MaxCap; cap += 25 {
		res, err := sim.RunGPU(p, &w, cap, gpu.Mem.ClockNom)
		if err != nil {
			issues = append(issues, Issue{Check: "simulate", Detail: err.Error()})
			return issues
		}
		if res.Perf <= 0 {
			issues = append(issues, Issue{Check: "progress",
				Detail: fmt.Sprintf("zero performance at cap %v", cap)})
		}
		if !res.AtFloor && res.TotalPower.Watts() > cap.Watts()+12 {
			issues = append(issues, Issue{Check: "board-cap",
				Detail: fmt.Sprintf("cap %v drew %v", cap, res.TotalPower)})
		}
		if res.Perf < prev*(1-0.01) {
			issues = append(issues, Issue{Check: "cap-monotone",
				Detail: fmt.Sprintf("perf dropped at cap %v", cap)})
		}
		prev = res.Perf
	}
	if _, err := profile.ProfileGPU(p, w); err != nil {
		issues = append(issues, Issue{Check: "profile", Detail: err.Error()})
	}
	return issues
}

// Catalog validates every built-in platform against every matching
// catalog workload; it backs the repository's own self-check and serves
// as an example of a full campaign. It runs on the shared catalog
// entries (hw.PlatformByName), whose actuators read the ladders built
// once with the catalog.
func Catalog() []Issue {
	var issues []Issue
	for _, p := range hw.AllPlatforms() {
		p, _ = hw.PlatformByName(p.Name)
		for _, w := range workload.AllWorkloads() {
			if w.Kind != p.Kind {
				continue
			}
			for _, i := range Pair(p, w) {
				issues = append(issues, Issue{
					Check:  p.Name + "/" + w.Name + "/" + i.Check,
					Detail: i.Detail,
				})
			}
		}
	}
	return issues
}
