package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/rapl"
	"repro/internal/units"
	"repro/internal/workload"
)

// solveCPUPoint is the operating point of one package state solved
// afresh, the reference loops' per-pass step: the pattern point
// throttled at the DRAM ceiling.
func solveCPUPoint(ctrl *rapl.Controller, p hw.Platform, ph *workload.Phase, state rapl.PackageState, opts Options) perfmodel.OperatingPoint {
	return perfmodel.Throttle(ph, solveCPUPattern(p, ph, state, opts), ctrl.DRAMBandwidthCeiling(ph.RandomFrac))
}

// boundRun is one run of a Model and of its unbound entry point.
type boundRun struct {
	desc    string
	bound   func(*Model) (Result, error)
	unbound func() (Result, error)
}

// sameRun reports how a bound run's outcome differs from the unbound
// one's, "" when the errors read alike and the results are identical
// bit for bit.
func sameRun(got Result, errGot error, want Result, errWant error) string {
	if (errGot == nil) != (errWant == nil) || (errGot != nil && errGot.Error() != errWant.Error()) {
		return fmt.Sprintf("error %v, unbound error %v", errGot, errWant)
	}
	return bitDiff(reflect.ValueOf(got), reflect.ValueOf(want), "Result")
}

// FuzzBoundRunMatchesRun holds every run of a bound Model to the
// unbound entry point's result bit for bit, errors included: RunCPU
// under both Options switches, RunGPU, RunGPUMemPower and RunGPUOffsets
// on random catalog pairs, at disabled, grid, ladder-edge and hostile
// caps, on- and off-grid memory clocks and SM and memory offsets. Each
// input's runs go through one model three times: cold (every run may
// fill table slots), warm (every slot the runs need is filled) and from
// four goroutines at once on a fresh model, in four orders.
func FuzzBoundRunMatchesRun(f *testing.F) {
	for plat := range 6 {
		for wl := range 12 {
			f.Add([]byte{byte(plat), byte(wl), byte(3*plat + wl), byte(7*wl + 1), byte(plat + 2*wl), 200, 17, byte(wl), 90, 3})
		}
	}
	rng := rand.New(rand.NewPCG(5, 6))
	for range 32 {
		b := make([]byte, 24)
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
		o := next()
		opts := Options{DisableDutyGating: o&1 != 0}
		if o&2 != 0 {
			opts.ForceOverlap = []float64{64, 1, 2.5}[o>>2%3]
		}
		act := w.Phases[0].Activity(float64(next()) / 255)
		// nudge moves a power by -1 RAPL power unit, -1 ulp, 0, +1 ulp
		// or +1 power unit.
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

		var runs []boundRun
		for len(runs) < 6 {
			mode, idx := next(), next()
			switch p.Kind {
			case hw.KindCPU:
				cpu := p.CPU
				var procCap, memCap units.Power
				switch mode % 5 {
				case 0:
					procCap = units.Power(-float64(idx % 2))
				case 1:
					procCap = units.Power(5 + idx)
				case 2:
					procCap = nudge(cpu.Power(cpu.PStateAt(idx%cpu.NumPStates()), 1, act))
				case 3:
					procCap = nudge(cpu.Power(cpu.FMin, cpu.DutyAt(idx%cpu.NumDuties()), act))
				case 4:
					procCap = units.Power(hostile[idx%len(hostile)])
				}
				switch j := next(); j % 3 {
				case 0:
					memCap = units.Power(-float64(j % 2))
				case 1:
					memCap = units.Power(float64(j) * p.DRAM.MaxPower(0.5).Watts() / 200)
				case 2:
					memCap = units.Power(hostile[j%len(hostile)])
				}
				runs = append(runs, boundRun{
					desc:    fmt.Sprintf("RunCPUOpts(%s, %s, %v, %v, %+v)", p.Name, w.Name, procCap, memCap, opts),
					bound:   func(m *Model) (Result, error) { return m.RunCPU(procCap, memCap) },
					unbound: func() (Result, error) { return RunCPUOpts(p, &w, procCap, memCap, opts) },
				})
			case hw.KindGPU:
				gpu := p.GPU
				var totalCap units.Power
				switch mode % 4 {
				case 0:
					totalCap = nudge(gpu.MinCap)
				case 1:
					totalCap = gpu.MinCap - 10 + units.Power(float64(idx)/240*(gpu.MaxCap-gpu.MinCap+20).Watts())
				case 2:
					totalCap = nudge(gpu.BoardPower(gpu.SMClockAt(idx%gpu.NumSMClocks()), gpu.Mem.ClockNom, act))
				case 3:
					totalCap = units.Power(hostile[idx%len(hostile)])
				}
				clocks := []units.Frequency{gpu.Mem.ClockMin, gpu.Mem.ClockNom, gpu.Mem.ClockMax,
					gpu.Mem.ClockMin - units.Megahertz, gpu.Mem.ClockMin + 1, (gpu.Mem.ClockMin + gpu.Mem.ClockMax) / 2,
					gpu.Mem.ClockMin + units.Frequency(idx%16)*gpu.Mem.ClockStep}
				offsets := []units.Frequency{0, -100 * units.Megahertz, -500 * units.Megahertz,
					150 * units.Megahertz, gpu.Mem.ClockStep, units.Frequency(math.NaN())}
				switch v, j := next(), next(); v % 3 {
				case 0:
					clock := clocks[j%len(clocks)]
					runs = append(runs, boundRun{
						desc:    fmt.Sprintf("RunGPU(%s, %s, %v, %v)", p.Name, w.Name, totalCap, clock),
						bound:   func(m *Model) (Result, error) { return m.RunGPU(totalCap, clock) },
						unbound: func() (Result, error) { return RunGPU(p, &w, totalCap, clock) },
					})
				case 1:
					budget := units.Power(float64(j) / 200 * gpu.Mem.PowerMax.Watts())
					runs = append(runs, boundRun{
						desc:    fmt.Sprintf("RunGPUMemPower(%s, %s, %v, %v)", p.Name, w.Name, totalCap, budget),
						bound:   func(m *Model) (Result, error) { return m.RunGPUMemPower(totalCap, budget) },
						unbound: func() (Result, error) { return RunGPUMemPower(p, &w, totalCap, budget) },
					})
				case 2:
					sm, mem := offsets[j%len(offsets)], offsets[j/len(offsets)%len(offsets)]
					runs = append(runs, boundRun{
						desc:    fmt.Sprintf("RunGPUOffsets(%s, %s, %v, %v, %v)", p.Name, w.Name, totalCap, sm, mem),
						bound:   func(m *Model) (Result, error) { return m.RunGPUOffsets(totalCap, sm, mem) },
						unbound: func() (Result, error) { return RunGPUOffsets(p, &w, totalCap, sm, mem) },
					})
				}
			}
		}

		want := make([]Result, len(runs))
		errWant := make([]error, len(runs))
		for i, r := range runs {
			want[i], errWant[i] = r.unbound()
		}
		m, err := Bind(p, &w, opts)
		if err != nil {
			t.Fatalf("Bind(%s, %s): %v", p.Name, w.Name, err)
		}
		for _, pass := range []string{"cold", "warm"} {
			for i, r := range runs {
				got, errGot := r.bound(m)
				if d := sameRun(got, errGot, want[i], errWant[i]); d != "" {
					t.Fatalf("%s, %s model: %s", r.desc, pass, d)
				}
			}
		}
		m, _ = Bind(p, &w, opts)
		var wg sync.WaitGroup
		diffs := make([]string, 4)
		for g := range diffs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range runs {
					i := (k*(g+1) + g) % len(runs)
					got, errGot := runs[i].bound(m)
					if d := sameRun(got, errGot, want[i], errWant[i]); d != "" {
						diffs[g] = runs[i].desc + ": " + d
						return
					}
				}
			}()
		}
		wg.Wait()
		for _, d := range diffs {
			if d != "" {
				t.Fatalf("shared model: %s", d)
			}
		}
	})
}

// TestBindErrors: Bind refuses what every entry point would refuse, and
// a bound model run on an entry point of the other kind answers the
// unbound entry point's error.
func TestBindErrors(t *testing.T) {
	ivy, _ := hw.PlatformByName("ivybridge")
	xp, _ := hw.PlatformByName("titanxp")
	cpuW, gpuW := mustWorkload(t, "stream"), mustWorkload(t, "sgemm")
	if _, err := Bind(ivy, gpuW, Options{}); err == nil {
		t.Error("Bind accepted a GPU workload on a CPU platform")
	}
	if _, err := Bind(xp, cpuW, Options{}); err == nil {
		t.Error("Bind accepted a CPU workload on a GPU platform")
	}
	bad := ivy
	cpu := *ivy.CPU
	cpu.PStateStep = 0
	bad.CPU = &cpu
	if _, err := Bind(bad, cpuW, Options{}); err == nil {
		t.Error("Bind accepted an invalid CPU spec")
	}

	cpuModel, err := Bind(ivy, cpuW, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gpuModel, err := Bind(xp, gpuW, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pairs := []struct {
		desc           string
		bound, unbound func() (Result, error)
	}{
		{"RunGPU on a CPU model",
			func() (Result, error) { return cpuModel.RunGPU(250, 5*units.Gigahertz) },
			func() (Result, error) { return RunGPU(ivy, cpuW, 250, 5*units.Gigahertz) }},
		{"RunGPUMemPower on a CPU model",
			func() (Result, error) { return cpuModel.RunGPUMemPower(250, 30) },
			func() (Result, error) { return RunGPUMemPower(ivy, cpuW, 250, 30) }},
		{"RunGPUOffsets on a CPU model",
			func() (Result, error) { return cpuModel.RunGPUOffsets(250, 0, 0) },
			func() (Result, error) { return RunGPUOffsets(ivy, cpuW, 250, 0, 0) }},
		{"RunCPU on a GPU model",
			func() (Result, error) { return gpuModel.RunCPU(100, 100) },
			func() (Result, error) { return RunCPU(xp, gpuW, 100, 100) }},
		{"a cap below the card's floor",
			func() (Result, error) { return gpuModel.RunGPU(50, 5*units.Gigahertz) },
			func() (Result, error) { return RunGPU(xp, gpuW, 50, 5*units.Gigahertz) }},
		{"an unrepresentable RAPL cap",
			func() (Result, error) { return cpuModel.RunCPU(units.Power(math.Inf(1)), 0) },
			func() (Result, error) { return RunCPU(ivy, cpuW, units.Power(math.Inf(1)), 0) }},
	}
	for _, c := range pairs {
		got, errGot := c.bound()
		want, errWant := c.unbound()
		if errWant == nil {
			t.Fatalf("%s: the unbound run succeeded", c.desc)
		}
		if d := sameRun(got, errGot, want, errWant); d != "" {
			t.Errorf("%s: %s", c.desc, d)
		}
	}
}
