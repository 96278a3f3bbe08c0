package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/nvgov"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/units"
	"repro/internal/workload"
)

// refSolveCPUPhase is the fixed-point loop as it was before operating
// points were reused: every pass solves the point afresh. It is kept
// verbatim as the exact twin of solveCPUPhase.
func refSolveCPUPhase(ctrl *rapl.Controller, p hw.Platform, ph *workload.Phase, opts Options) PhaseResult {
	act := ph.Activity(0.5)
	var state rapl.PackageState
	var op perfmodel.OperatingPoint
	for i := 0; i < maxIterations; i++ {
		state = ctrl.ActuatePackage(act)
		op = solveCPUPoint(ctrl, p, ph, state, opts)
		next := ph.Activity(op.StallFrac)
		if math.Abs(next-act) < convergeEps {
			act = next
			break
		}
		act += damping * (next - act)
	}
	// Final consistent pass with the converged activity.
	state = ctrl.ActuatePackage(act)
	op = solveCPUPoint(ctrl, p, ph, state, opts)
	act = ph.Activity(op.StallFrac)

	return PhaseResult{
		Phase:        ph.Name,
		Weight:       ph.Weight,
		Rate:         op.Rate,
		ProcPower:    ctrl.PackagePower(state, act),
		MemPower:     ctrl.DRAMPower(op.BandwidthUsed, ph.RandomFrac),
		Freq:         state.Freq,
		Duty:         state.Duty,
		MemBandwidth: op.BandwidthUsed,
		ComputeUtil:  op.ComputeUtil,
		MemUtil:      op.MemUtil,
		StallFrac:    op.StallFrac,
		Throttled:    state.Throttled,
		AtFloor:      state.AtFloor,
		Activity:     act,
	}
}

// refSolveGPUPhase is solveGPUPhase's verbatim twin, likewise.
func refSolveGPUPhase(gov *nvgov.Governor, p hw.Platform, ph *workload.Phase) PhaseResult {
	act := ph.Activity(0.5)
	var state nvgov.State
	var op perfmodel.OperatingPoint
	for i := 0; i < maxIterations; i++ {
		state = gov.Actuate(act)
		op = solveGPUPoint(p, ph, state)
		next := ph.Activity(op.StallFrac)
		if math.Abs(next-act) < convergeEps {
			act = next
			break
		}
		act += damping * (next - act)
	}
	state = gov.Actuate(act)
	op = solveGPUPoint(p, ph, state)
	act = ph.Activity(op.StallFrac)

	memPower := p.GPU.Mem.Power(state.MemClock)
	return PhaseResult{
		Phase:        ph.Name,
		Weight:       ph.Weight,
		Rate:         op.Rate,
		ProcPower:    p.GPU.IdleBoard + p.GPU.SMPower(state.SMClock, act),
		MemPower:     memPower,
		Freq:         state.SMClock,
		Duty:         1,
		MemBandwidth: op.BandwidthUsed,
		ComputeUtil:  op.ComputeUtil,
		MemUtil:      op.MemUtil,
		StallFrac:    op.StallFrac,
		Throttled:    state.PowerLimited,
		AtFloor:      state.AtFloor,
		Activity:     act,
	}
}

// refRunCPU is RunCPUOpts on the reference loop. Callers pass catalog
// pairs of matching kinds, so it skips RunCPUOpts's validation.
func refRunCPU(p hw.Platform, w *workload.Workload, procCap, memCap units.Power, opts Options) (Result, error) {
	ctrl := rapl.NewController(p.CPU, p.DRAM)
	if err := ctrl.SetLimit(rapl.DomainPackage, procCap); err != nil {
		return Result{}, err
	}
	if err := ctrl.SetLimit(rapl.DomainDRAM, memCap); err != nil {
		return Result{}, err
	}
	phases := make([]PhaseResult, 0, len(w.Phases))
	for i := range w.Phases {
		ph := w.Phases[i]
		if opts.ForceOverlap > 0 {
			ph.Overlap = opts.ForceOverlap
		}
		phases = append(phases, refSolveCPUPhase(ctrl, p, &ph, opts))
	}
	return aggregate(w, phases), nil
}

// refRunGPU is the GPU entry points on the reference loop: configure
// applies the clock settings the entry point under test programs.
func refRunGPU(p hw.Platform, w *workload.Workload, totalCap units.Power, configure func(*nvgov.Governor)) (Result, error) {
	gov := nvgov.New(p.GPU)
	if err := gov.SetPowerCap(totalCap); err != nil {
		return Result{}, err
	}
	configure(gov)
	phases := make([]PhaseResult, 0, len(w.Phases))
	for i := range w.Phases {
		phases = append(phases, refSolveGPUPhase(gov, p, &w.Phases[i]))
	}
	return aggregate(w, phases), nil
}

// bitDiff returns the path of the first field where a and b differ,
// comparing every float by its bits, or "" when they are identical.
func bitDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v (%#x) vs %v (%#x)", path,
				a.Float(), math.Float64bits(a.Float()), b.Float(), math.Float64bits(b.Float()))
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := bitDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d vs %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := bitDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	default:
		if !a.Equal(b) {
			return fmt.Sprintf("%s: %v vs %v", path, a, b)
		}
	}
	return ""
}

// FuzzFixedPointReuse holds the simulator's fixed-point loops, which
// reuse the last operating point when the actuator repeats its state,
// to their solve-every-pass reference bit for bit: RunCPUOpts under
// both Options switches, RunGPU, RunGPUMemPower and RunGPUOffsets, on
// catalog platforms and workloads, at disabled caps, floor caps, caps
// within one ulp (and one RAPL power unit) of a P-state, T-state or
// SM-bin power, and hostile values.
func FuzzFixedPointReuse(f *testing.F) {
	// The seeded corpus: every platform and every workload of its kind
	// in each cap mode at eight cap indices, then 64 fixed pseudo-random
	// draws.
	for plat := range 6 {
		for wl := range 12 {
			for mode := range 6 {
				for k := range 8 {
					idx := 31*k + wl
					f.Add([]byte{byte(plat), byte(wl), byte(mode), byte(idx), byte(40*mode + k),
						byte(k + mode), byte(plat + wl + k), byte(3*mode + idx), byte(wl + k)})
				}
			}
		}
	}
	rng := rand.New(rand.NewPCG(3, 4))
	for range 64 {
		b := make([]byte, 10)
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		f.Add(b)
	}
	plats := hw.AllPlatforms()
	byKind := map[hw.Kind][]workload.Workload{}
	for _, w := range workload.AllWorkloads() {
		byKind[w.Kind] = append(byKind[w.Kind], w)
	}
	hostile := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -5}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		p := plats[next()%len(plats)]
		wls := byKind[p.Kind]
		w := wls[next()%len(wls)]
		mode, idx := next(), next()
		ph := &w.Phases[idx%len(w.Phases)]
		act := ph.Activity(float64(next()) / 255)
		// nudge moves a target power by -1 power unit, -1 ulp, 0,
		// +1 ulp or +1 power unit: the RAPL limit register holds
		// multiples of rapl.PowerUnit, the board cap any float.
		nudge := func(x units.Power) units.Power {
			switch next() % 5 {
			case 0:
				return x - rapl.PowerUnit
			case 1:
				return units.Power(math.Nextafter(x.Watts(), math.Inf(-1)))
			case 3:
				return units.Power(math.Nextafter(x.Watts(), math.Inf(1)))
			case 4:
				return x + rapl.PowerUnit
			}
			return x
		}

		var got, want Result
		var errGot, errWant error
		var desc string
		switch p.Kind {
		case hw.KindCPU:
			cpu := p.CPU
			var procCap units.Power
			switch mode % 6 {
			case 0: // disabled
				procCap = units.Power(-float64(idx % 2))
			case 1: // a grid over the whole range
				procCap = units.Power(5 + idx)
			case 2: // a P-state's power
				procCap = nudge(cpu.Power(cpu.PStateAt(idx%cpu.NumPStates()), 1, act))
			case 3: // a T-state's power at the lowest P-state
				procCap = nudge(cpu.Power(cpu.FMin, cpu.DutyAt(idx%cpu.NumDuties()), act))
			case 4: // the hardware floor, at and below
				procCap = nudge(cpu.MinActivePower(act) * units.Power(1-float64(idx%4)/8))
			case 5:
				procCap = units.Power(hostile[idx%len(hostile)])
			}
			var memCap units.Power
			switch m, j := next(), next(); m % 4 {
			case 0: // disabled
				memCap = units.Power(-float64(j % 2))
			case 1: // a grid around the DRAM range
				memCap = units.Power(float64(j) * p.DRAM.MaxPower(ph.RandomFrac).Watts() / 200)
			case 2: // the power of a fraction of peak bandwidth
				bw := units.Bandwidth(float64(j) / 255 * p.DRAM.PeakBandwidth().BytesPerSecond())
				memCap = nudge(p.DRAM.Power(bw, ph.RandomFrac))
			case 3:
				memCap = units.Power(hostile[j%len(hostile)])
			}
			o := next()
			opts := Options{DisableDutyGating: o&1 != 0}
			if o&2 != 0 {
				opts.ForceOverlap = []float64{64, 1, 2.5}[o>>2%3]
			}
			desc = fmt.Sprintf("RunCPUOpts(%s, %s, %v, %v, %+v)", p.Name, w.Name, procCap, memCap, opts)
			got, errGot = RunCPUOpts(p, &w, procCap, memCap, opts)
			want, errWant = refRunCPU(p, &w, procCap, memCap, opts)

		case hw.KindGPU:
			gpu := p.GPU
			clocks := []units.Frequency{gpu.Mem.ClockMin, gpu.Mem.ClockNom, gpu.Mem.ClockMax,
				gpu.Mem.ClockMin - units.Megahertz, (gpu.Mem.ClockMin + gpu.Mem.ClockMax) / 2}
			offsets := []units.Frequency{0, -100 * units.Megahertz, -500 * units.Megahertz,
				150 * units.Megahertz, units.Frequency(math.NaN())}
			variant, j := next(), next()
			var configure func(*nvgov.Governor)
			var run func(units.Power) (Result, error)
			switch variant % 3 {
			case 0:
				clock := clocks[j%len(clocks)]
				configure = func(g *nvgov.Governor) { g.SetMemClock(clock) }
				run = func(c units.Power) (Result, error) { return RunGPU(p, &w, c, clock) }
				desc = fmt.Sprintf("RunGPU(%s, %s, cap, %v)", p.Name, w.Name, clock)
			case 1:
				budget := units.Power(float64(j) / 200 * gpu.Mem.PowerMax.Watts())
				if j%3 == 0 {
					budget = nudge(gpu.Mem.Power(clocks[j%len(clocks)]))
				}
				configure = func(g *nvgov.Governor) { g.SetMemClock(gpu.Mem.ClockForPower(budget)) }
				run = func(c units.Power) (Result, error) { return RunGPUMemPower(p, &w, c, budget) }
				desc = fmt.Sprintf("RunGPUMemPower(%s, %s, cap, %v)", p.Name, w.Name, budget)
			case 2:
				sm, mem := offsets[j%len(offsets)], offsets[j/len(offsets)%len(offsets)]
				configure = func(g *nvgov.Governor) { g.SetSMOffset(sm); g.SetMemOffset(mem) }
				run = func(c units.Power) (Result, error) { return RunGPUOffsets(p, &w, c, sm, mem) }
				desc = fmt.Sprintf("RunGPUOffsets(%s, %s, cap, %v, %v)", p.Name, w.Name, sm, mem)
			}
			// The memory clock the run will hold, for SM-bin powers.
			g := nvgov.New(gpu)
			configure(g)
			mem := g.MemClock()
			var totalCap units.Power
			switch mode % 6 {
			case 0, 4: // the settable floor, at and just below
				totalCap = nudge(gpu.MinCap)
			case 1: // a grid past both ends of the settable range
				totalCap = gpu.MinCap - 10 + units.Power(float64(idx)/240*(gpu.MaxCap-gpu.MinCap+20).Watts())
			case 2: // an SM bin's board power
				totalCap = nudge(gpu.BoardPower(gpu.SMClockAt(idx%gpu.NumSMClocks()), mem, act))
			case 3: // TDP and the settable ceiling
				totalCap = nudge([]units.Power{gpu.TDP, gpu.MaxCap}[idx%2])
			case 5:
				totalCap = units.Power(hostile[idx%len(hostile)])
			}
			desc = fmt.Sprintf("%s at cap %v", desc, totalCap)
			got, errGot = run(totalCap)
			want, errWant = refRunGPU(p, &w, totalCap, configure)
		}

		if (errGot == nil) != (errWant == nil) || (errGot != nil && errGot.Error() != errWant.Error()) {
			t.Fatalf("%s: error %v, reference error %v", desc, errGot, errWant)
		}
		if d := bitDiff(reflect.ValueOf(got), reflect.ValueOf(want), "Result"); d != "" {
			t.Fatalf("%s differs from the reference loop at %s", desc, d)
		}
	})
}
