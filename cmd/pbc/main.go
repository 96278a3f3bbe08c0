// Command pbc is the power-bounded computing toolbox: it lists platforms
// and benchmarks, runs single simulations, sweeps allocation spaces,
// profiles workloads, and runs the COORD heuristic — the same operations
// the paper's experiments compose.
//
// Usage:
//
//	pbc list platforms|workloads
//	pbc run -platform ivybridge -workload stream [-proc 120] [-mem 88]
//	pbc sweep -platform ivybridge -workload sra -budget 240
//	pbc curve -platform ivybridge -workload dgemm [-lo 130] [-hi 300] [-n 18]
//	pbc profile -platform ivybridge -workload sra
//	pbc coord -platform ivybridge -workload sra -budget 208 [-strategy coord]
//	pbc trace -platform ivybridge -workload bt -proc 140 -mem 110 -units 5e11
//	pbc faults -platform ivybridge -workload stream -budget 208 -fault-seed 7
//	pbc des -nodes 100 -arrival-spec "rate=0.2,burst=2" -seed 7 -horizon 3600
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/biglittle"
	"repro/internal/calibrate"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/corun"
	"repro/internal/dyncoord"
	"repro/internal/evalpool"
	"repro/internal/hw"
	"repro/internal/nvgov"
	"repro/internal/profile"
	"repro/internal/rapl"
	"repro/internal/report"
	"repro/internal/roofline"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/telemetry"
	"repro/internal/telemetry/wire"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/validate"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = cmdList(args)
	case "run":
		err = cmdRun(args)
	case "sweep":
		err = cmdSweep(args)
	case "curve":
		err = cmdCurve(args)
	case "profile":
		err = cmdProfile(args)
	case "coord":
		err = cmdCoord(args)
	case "dyncoord":
		err = cmdDynCoord(args)
	case "recoord":
		err = cmdRecoord(args)
	case "hetero":
		err = cmdHetero(args)
	case "corun":
		err = cmdCoRun(args)
	case "gpustat":
		err = cmdGPUStat(args)
	case "powercap":
		err = cmdPowercap(args)
	case "synth":
		err = cmdSynth(args)
	case "validate":
		err = cmdValidate(args)
	case "verify":
		err = cmdVerify(args)
	case "roofline":
		err = cmdRoofline(args)
	case "calibrate":
		err = cmdCalibrate(args)
	case "trace":
		err = cmdTrace(args)
	case "faults":
		err = cmdFaults(args)
	case "des":
		err = cmdDes(args)
	case "tree":
		err = cmdTree(args)
	case "serve":
		err = cmdServe(args)
	case "call":
		err = cmdCall(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pbc: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pbc:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `pbc — power-bounded computing toolbox

commands:
  list platforms|workloads       show the Table 2 platforms / Table 3 benchmarks
  run      simulate one allocation      (-platform -workload [-proc W] [-mem W] [-cap W] [-memclock MHz])
  sweep    sweep an allocation space    (-platform -workload -budget W)
  curve    perf_max vs budget curve     (-platform -workload [-lo W] [-hi W] [-n points])
  profile  extract critical powers      (-platform -workload)
  coord    run a coordination strategy  (-platform -workload -budget W [-strategy name])
  dyncoord per-phase dynamic COORD      (-platform -workload -budget W)
  recoord  online GPU re-coordination   (-platform h100 -workload llmserve -budget W
                                         [-phases "seq=1024,out=512"] [-rounds N]; telemetry-driven
                                         phase-shift detection vs static COORD and the governor)
  hetero   big.LITTLE coordination      (-workload -budget W)
  corun    co-run two tenants           (-a dgemm -b stream -proc W -mem W)
  gpustat  nvidia-smi-style device query (-platform titanxp -workload sgemm [-cap W])
  powercap Linux powercap-sysfs facade  (-platform ivybridge [zone/file [value]])
  synth    model your own workload      (-intensity F -random F -vector F [-budget W])
  validate invariant battery            ([-platform name] [-workload name])
  verify   coordination-stack invariants ([-platform name] [-workload name] [-budgets N])
  roofline power-capped roofline         (-platform -workload -budget W [-svg file])
  calibrate fit a model to measurements (-workload name -proc W -mem W [-perf X])
  trace    time-stepped run             (-platform -workload -proc W -mem W -units N [-dt ms])
  faults   fault-injection sweep        (-platform -workload -budget W [-fault-spec s] [-fault-seed n])
  des      discrete-event simulator     (-nodes N -arrival-spec s -seed n -horizon s [-mode fast|exact]
                                         [-fault-spec s] [-jobs0 N] [-replay-check]; seeded open arrivals,
                                         byte-reproducible traces)
  tree     hierarchical budget tree      (-spec s -budget W [-shock rack=frac]
                                         [-fault-spec s -fault-seed n -horizon s]; datacenter ->
                                         rack -> node water-filling with SLA-aware shedding)
  serve    HTTP endpoint                (-addr host:port [-rounds N] [-api-workers N] [-api-queue N]
                                         [-peers url,url,...]; /metrics + /healthz + /v1/peers +
                                         allocation API: POST /v1/coord, /v1/plan, /v1/schedule
                                         with coalescing and backpressure)
  call     resilient API client          (-servers url,url,... | -discover url;
                                         -route coord|plan|schedule|tree|recoord;
                                         consistent-hash sharding, circuit breakers, failover, and
                                         degraded-local fallback [-no-degraded])

sweep, curve, coord, dyncoord, and faults accept -telemetry to dump a
metrics snapshot after the run.

sweep, curve, and coord accept evaluation-engine knobs:
  -workers N      parallel evaluation workers (0 = GOMAXPROCS)
  -cache-size N   memo bound in simulated points (0 = default, negative disables)
  -stats          print engine statistics (workers, memo hits/misses) after the run
`)
}

// engineFlags registers the evaluation-engine knobs on a flag set and
// returns a function to call after parsing: it configures the shared
// engine and reports whether stats printing was requested. Stats are off
// by default so command output stays byte-stable for golden comparisons.
func engineFlags(fs *flag.FlagSet) func() bool {
	workers := fs.Int("workers", 0, "evaluation workers (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache-size", 0, "memo bound in simulated points (0 = default 65536, negative disables)")
	stats := fs.Bool("stats", false, "print evaluation-engine statistics after the run")
	return func() bool {
		evalpool.Configure(evalpool.Options{Workers: *workers, CacheSize: *cacheSize})
		return *stats
	}
}

// printEngineStats reports the shared engine's counters (workers, memo
// hits/misses, evictions) so sweep cost is observable.
func printEngineStats() {
	fmt.Printf("\nengine: %s\n", evalpool.Default().Stats())
}

// telemetryFlags registers the -telemetry knob on a flag set and
// returns a function to call after parsing: when the flag is set, it
// wires a fresh registry into the whole stack and returns a dump
// function to defer (prints the snapshot and unwires); when unset, it
// returns nil and the run stays on the free nil-handle path.
func telemetryFlags(fs *flag.FlagSet) func() func() {
	enabled := fs.Bool("telemetry", false, "instrument the run and print a metrics snapshot afterwards")
	return func() func() {
		if !*enabled {
			return nil
		}
		reg := telemetry.New()
		wire.Instrument(reg)
		wire.InstrumentEngine(reg)
		return func() {
			wire.Instrument(nil)
			fmt.Printf("\n%s", reg.Snapshot().Text())
		}
	}
}

func platformAndWorkload(fs *flag.FlagSet) (*string, *string) {
	p := fs.String("platform", "ivybridge", "platform name (pbc list platforms)")
	w := fs.String("workload", "stream", "workload name (pbc list workloads)")
	return p, w
}

func resolve(platform, wl string) (hw.Platform, workload.Workload, error) {
	p, err := hw.PlatformByName(platform)
	if err != nil {
		return hw.Platform{}, workload.Workload{}, err
	}
	w, err := workload.ByName(wl)
	if err != nil {
		return hw.Platform{}, workload.Workload{}, err
	}
	if w.Kind != p.Kind {
		return hw.Platform{}, workload.Workload{}, fmt.Errorf(
			"workload %q is a %s benchmark but platform %q is a %s platform",
			wl, w.Kind, platform, p.Kind)
	}
	return p, w, nil
}

func cmdList(args []string) error {
	what := "platforms"
	if len(args) > 0 {
		what = args[0]
	}
	switch what {
	case "platforms":
		tb := report.NewTable("Platforms (Table 2)", "name", "paper", "kind", "processor", "memory")
		for _, p := range hw.AllPlatforms() {
			switch p.Kind {
			case hw.KindCPU:
				tb.AddRow(p.Name, p.Paper, "cpu", p.CPU.Name, p.DRAM.Name)
			case hw.KindGPU:
				tb.AddRow(p.Name, p.Paper, "gpu", p.GPU.Name, p.GPU.Mem.Name)
			}
		}
		fmt.Print(tb.String())
	case "workloads":
		tb := report.NewTable("Benchmarks (Table 3)", "name", "suite", "kind", "perf unit", "ops/byte", "description")
		for _, w := range workload.AllWorkloads() {
			tb.AddRow(w.Name, w.Suite, w.Kind.String(), w.PerfUnit,
				report.FormatFloat(w.ComputeIntensity()), w.Desc)
		}
		fmt.Print(tb.String())
	default:
		return fmt.Errorf("list: unknown kind %q (want platforms or workloads)", what)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	platform, wl := platformAndWorkload(fs)
	proc := fs.Float64("proc", 0, "CPU package cap in watts (0 = uncapped)")
	mem := fs.Float64("mem", 0, "DRAM cap in watts (0 = uncapped)")
	cap := fs.Float64("cap", 0, "GPU board cap in watts (0 = TDP)")
	memClock := fs.Float64("memclock", 0, "GPU memory clock in MHz (0 = nominal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, w, err := resolve(*platform, *wl)
	if err != nil {
		return err
	}
	var res sim.Result
	switch p.Kind {
	case hw.KindCPU:
		res, err = sim.RunCPU(p, &w, units.Power(*proc), units.Power(*mem))
	case hw.KindGPU:
		c := units.Power(*cap)
		if c == 0 {
			c = p.GPU.TDP
		}
		clk := units.Frequency(*memClock) * units.Megahertz
		if clk == 0 {
			clk = p.GPU.Mem.ClockNom
		}
		res, err = sim.RunGPU(p, &w, c, clk)
	}
	if err != nil {
		return err
	}
	tb := report.NewTable(fmt.Sprintf("%s on %s", w.Name, p.Name), "metric", "value")
	tb.AddRow("performance", fmt.Sprintf("%s %s", report.FormatFloat(res.Perf), w.PerfUnit))
	tb.AddRow("proc power", res.ProcPower.String())
	tb.AddRow("mem power", res.MemPower.String())
	tb.AddRow("total power", res.TotalPower.String())
	tb.AddRow("compute util", report.FormatFloat(res.ComputeUtil))
	tb.AddRow("memory util", report.FormatFloat(res.MemUtil))
	tb.AddRow("stall fraction", report.FormatFloat(res.StallFrac))
	tb.AddRow("throttled", fmt.Sprintf("%v", res.Throttled))
	fmt.Print(tb.String())
	if len(res.Phases) > 1 {
		pt := report.NewTable("per-phase", "phase", "rate", "proc (W)", "mem (W)", "freq", "duty")
		for _, ph := range res.Phases {
			pt.AddRow(ph.Phase, ph.Rate.String(),
				report.FormatFloat(ph.ProcPower.Watts()),
				report.FormatFloat(ph.MemPower.Watts()),
				ph.Freq.String(), report.FormatFloat(ph.Duty))
		}
		fmt.Print(pt.String())
	}
	return nil
}

func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	platform, wl := platformAndWorkload(fs)
	budget := fs.Float64("budget", 208, "total power budget in watts")
	engine := engineFlags(fs)
	telem := telemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stats := engine()
	if dump := telem(); dump != nil {
		defer dump()
	}
	p, w, err := resolve(*platform, *wl)
	if err != nil {
		return err
	}
	pb := core.NewProblem(p, w, units.Power(*budget))
	evals, err := pb.Sweep()
	if err != nil {
		return err
	}
	tb := report.NewTable(
		fmt.Sprintf("%s on %s at %s", w.Name, p.Name, units.Power(*budget)),
		"P_proc (W)", "P_mem (W)", w.PerfUnit, "actual proc", "actual mem")
	for _, e := range evals {
		tb.AddRowf(e.Alloc.Proc.Watts(), e.Alloc.Mem.Watts(), e.Result.Perf,
			e.Result.ProcPower.Watts(), e.Result.MemPower.Watts())
	}
	fmt.Print(tb.String())
	best, _ := core.Best(evals)
	worst, _ := core.Worst(evals)
	fmt.Printf("\nbest %v -> %s %s; worst -> %s; spread %.1fx\n",
		best.Alloc, report.FormatFloat(best.Result.Perf), w.PerfUnit,
		report.FormatFloat(worst.Result.Perf), core.Spread(evals))
	if stats {
		printEngineStats()
	}
	return nil
}

func cmdCurve(args []string) error {
	fs := flag.NewFlagSet("curve", flag.ExitOnError)
	platform, wl := platformAndWorkload(fs)
	lo := fs.Float64("lo", 130, "lowest budget in watts")
	hi := fs.Float64("hi", 300, "highest budget in watts")
	n := fs.Int("n", 18, "number of points")
	engine := engineFlags(fs)
	telem := telemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stats := engine()
	if dump := telem(); dump != nil {
		defer dump()
	}
	p, w, err := resolve(*platform, *wl)
	if err != nil {
		return err
	}
	s, err := sweep.BudgetCurve(p, w, units.Power(*lo), units.Power(*hi), *n)
	if err != nil {
		return err
	}
	tb := report.NewTable(s.Name, "budget (W)", w.PerfUnit)
	for i := range s.X {
		tb.AddRowf(s.X[i], s.Y[i])
	}
	fmt.Print(tb.String())
	fmt.Print(report.Chart("shape", s.X, s.Y, 56, 12))
	if stats {
		printEngineStats()
	}
	return nil
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	platform, wl := platformAndWorkload(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, w, err := resolve(*platform, *wl)
	if err != nil {
		return err
	}
	switch p.Kind {
	case hw.KindCPU:
		prof, err := profile.ProfileCPU(p, w)
		if err != nil {
			return err
		}
		cp := prof.Critical
		tb := report.NewTable(
			fmt.Sprintf("critical powers: %s on %s (%d runs)", w.Name, p.Name, prof.Runs),
			"value", "watts", "meaning")
		tb.AddRow("P_cpu_L1", report.FormatFloat(cp.CPUMax.Watts()), "max processor demand")
		tb.AddRow("P_cpu_L2", report.FormatFloat(cp.CPULowPState.Watts()), "lowest P-state power")
		tb.AddRow("P_cpu_L3", report.FormatFloat(cp.CPULowThrottle.Watts()), "throttling onset power")
		tb.AddRow("P_cpu_L4", report.FormatFloat(cp.CPUFloor.Watts()), "hardware floor")
		tb.AddRow("P_mem_L1", report.FormatFloat(cp.MemMax.Watts()), "max DRAM demand")
		tb.AddRow("P_mem_L2", report.FormatFloat(cp.MemAtCPULow.Watts()), "DRAM power at CPU L3")
		tb.AddRow("P_mem_L3", report.FormatFloat(cp.MemFloor.Watts()), "hardware floor")
		fmt.Print(tb.String())
		fmt.Printf("\nproductive threshold: %s; uncapped perf: %s %s\n",
			cp.ProductiveThreshold(), report.FormatFloat(prof.UncappedPerf), w.PerfUnit)
	case hw.KindGPU:
		prof, err := profile.ProfileGPU(p, w)
		if err != nil {
			return err
		}
		tb := report.NewTable(
			fmt.Sprintf("GPU profile: %s on %s (%d runs)", w.Name, p.Name, prof.Runs),
			"value", "watts", "meaning")
		tb.AddRow("P_tot_max", report.FormatFloat(prof.TotMax.Watts()), "board power uncapped")
		tb.AddRow("P_tot_ref", report.FormatFloat(prof.TotRef.Watts()), "mem nominal, SM min clock")
		tb.AddRow("P_mem_min", report.FormatFloat(prof.MemMin.Watts()), "card constant")
		tb.AddRow("P_mem_max", report.FormatFloat(prof.MemMax.Watts()), "card constant")
		fmt.Print(tb.String())
		fmt.Printf("\ncompute intensive: %v; uncapped perf: %s %s\n",
			prof.ComputeIntensive, report.FormatFloat(prof.UncappedPerf), w.PerfUnit)
	}
	return nil
}

func cmdCoord(args []string) error {
	fs := flag.NewFlagSet("coord", flag.ExitOnError)
	platform, wl := platformAndWorkload(fs)
	budget := fs.Float64("budget", 208, "total power budget in watts")
	strategy := fs.String("strategy", "coord", "coord, memory-first, cpu-first, even-split, nvidia-default")
	engine := engineFlags(fs)
	telem := telemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	stats := engine()
	if dump := telem(); dump != nil {
		defer dump()
	}
	p, w, err := resolve(*platform, *wl)
	if err != nil {
		return err
	}
	b := units.Power(*budget)
	var d coord.Decision
	switch p.Kind {
	case hw.KindCPU:
		prof, err := profile.ProfileCPU(p, w)
		if err != nil {
			return err
		}
		found := false
		for _, s := range coord.CPUStrategies() {
			if s.Name == *strategy {
				d = s.Decide(prof, b)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown CPU strategy %q", *strategy)
		}
	case hw.KindGPU:
		prof, err := profile.ProfileGPU(p, w)
		if err != nil {
			return err
		}
		found := false
		for _, s := range coord.GPUStrategies() {
			if s.Name == *strategy {
				d = s.Decide(prof, b)
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown GPU strategy %q", *strategy)
		}
	}
	fmt.Printf("%s(%s) -> %v status=%v", *strategy, b, d.Alloc, d.Status)
	if d.Status == coord.StatusSurplus {
		fmt.Printf(" surplus=%v", d.Surplus)
	}
	fmt.Println()
	if d.Status == coord.StatusTooSmall {
		return nil
	}
	pb := core.NewProblem(p, w, b)
	ev, err := pb.Evaluate(d.Alloc)
	if err != nil {
		return err
	}
	best, err := pb.PerfMax()
	if err != nil {
		return err
	}
	ratio := ev.Result.Perf / best.Result.Perf
	coord.ObserveGapRatio(ratio)
	fmt.Printf("performance: %s %s (best from sweep: %s at %v; ratio %.3f)\n",
		report.FormatFloat(ev.Result.Perf), w.PerfUnit,
		report.FormatFloat(best.Result.Perf), best.Alloc, ratio)
	if stats {
		printEngineStats()
	}
	return nil
}

func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	platform, wl := platformAndWorkload(fs)
	proc := fs.Float64("proc", 0, "CPU package cap in watts (0 = uncapped)")
	mem := fs.Float64("mem", 0, "DRAM cap in watts (0 = uncapped)")
	unitsN := fs.Float64("units", 1e11, "work units to execute")
	dtMs := fs.Int("dt", 10, "sample step in milliseconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, w, err := resolve(*platform, *wl)
	if err != nil {
		return err
	}
	if p.Kind != hw.KindCPU {
		return fmt.Errorf("trace supports CPU platforms")
	}
	tr, err := trace.RunCPU(p, &w, units.Power(*proc), units.Power(*mem),
		*unitsN, time.Duration(*dtMs)*time.Millisecond)
	if err != nil {
		return err
	}
	fmt.Printf("elapsed %v; energy: proc %v, mem %v; avg power %v; peak window avg %v\n",
		tr.Elapsed.Round(time.Millisecond), tr.ProcEnergy, tr.MemEnergy,
		tr.AvgTotalPower, tr.PeakWindowAvg)
	var totals []float64
	for _, s := range tr.Samples {
		totals = append(totals, (s.ProcPower + s.MemPower).Watts())
	}
	fmt.Printf("total power over time: %s\n", report.Sparkline(decimate(totals, 64)))
	bd := tr.PhaseBreakdown()
	tb := report.NewTable("phase breakdown", "phase", "time")
	for _, ph := range w.Phases {
		if d, ok := bd[ph.Name]; ok {
			tb.AddRow(ph.Name, d.Round(time.Millisecond).String())
		}
	}
	fmt.Print(tb.String())
	return nil
}

// decimate reduces a series to at most n points by striding.
func decimate(vs []float64, n int) []float64 {
	if len(vs) <= n || n <= 0 {
		return vs
	}
	out := make([]float64, 0, n)
	stride := float64(len(vs)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, vs[int(float64(i)*stride)])
	}
	return out
}

func cmdDynCoord(args []string) error {
	fs := flag.NewFlagSet("dyncoord", flag.ExitOnError)
	platform, wl := platformAndWorkload(fs)
	budget := fs.Float64("budget", 208, "total power budget in watts")
	telem := telemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if dump := telem(); dump != nil {
		defer dump()
	}
	p, w, err := resolve(*platform, *wl)
	if err != nil {
		return err
	}
	if p.Kind != hw.KindCPU {
		return fmt.Errorf("dyncoord supports CPU platforms")
	}
	b := units.Power(*budget)
	plan, err := dyncoord.PlanCPU(p, w, b)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		fmt.Sprintf("dynamic plan: %s on %s at %s", w.Name, p.Name, b),
		"phase", "weight", "P_cpu (W)", "P_mem (W)", "status")
	for _, st := range plan.Steps {
		tb.AddRow(st.Phase, report.FormatFloat(st.Weight),
			report.FormatFloat(st.Alloc.Proc.Watts()),
			report.FormatFloat(st.Alloc.Mem.Watts()),
			st.Status.String())
	}
	fmt.Print(tb.String())
	cmp, err := dyncoord.Compare(p, w, b)
	if err != nil {
		return err
	}
	fmt.Printf("\nstatic COORD: %s %s; dynamic per-phase: %s %s (gain %+.1f%%)\n",
		report.FormatFloat(cmp.StaticPerf), w.PerfUnit,
		report.FormatFloat(cmp.DynamicPerf), w.PerfUnit, cmp.Gain*100)
	return nil
}

func cmdHetero(args []string) error {
	fs := flag.NewFlagSet("hetero", flag.ExitOnError)
	wl := fs.String("workload", "stream", "CPU workload name")
	budget := fs.Float64("budget", 90, "node power budget in watts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workload.ByName(*wl)
	if err != nil {
		return err
	}
	node := biglittle.Reference()
	d, err := biglittle.Coordinate(node, w, units.Power(*budget))
	if err != nil {
		return err
	}
	if d.Rejected {
		fmt.Printf("budget %s rejected: no activation mode runs productively\n",
			units.Power(*budget))
		return nil
	}
	fmt.Printf("mode %s, allocation %v -> %s %s\n",
		d.Mode, d.Alloc, report.FormatFloat(d.PredictedPerf), w.PerfUnit)
	res, err := biglittle.Run(node, &w, d.Alloc)
	if err != nil {
		return err
	}
	fmt.Printf("actual draw: big %v, little %v, mem %v (total %v); big work share %.0f%%\n",
		res.BigPower, res.LittlePower, res.MemPower, res.TotalPower, res.BigShare*100)
	return nil
}

func cmdCoRun(args []string) error {
	fs := flag.NewFlagSet("corun", flag.ExitOnError)
	platform := fs.String("platform", "ivybridge", "CPU platform name")
	aName := fs.String("a", "dgemm", "first tenant workload")
	bName := fs.String("b", "stream", "second tenant workload")
	proc := fs.Float64("proc", 200, "shared package cap in watts")
	mem := fs.Float64("mem", 110, "shared DRAM cap in watts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, wa, err := resolve(*platform, *aName)
	if err != nil {
		return err
	}
	_, wb, err := resolve(*platform, *bName)
	if err != nil {
		return err
	}
	parts, best, err := corun.BestPartition(p, wa, wb, units.Power(*proc), units.Power(*mem), 0.1)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		fmt.Sprintf("core partitions: %s + %s under (%s, %s)", wa.Name, wb.Name,
			units.Power(*proc), units.Power(*mem)),
		wa.Name+" cores", wa.Name+" perf", wb.Name+" perf", "weighted speedup")
	for i, pt := range parts {
		mark := ""
		if i == best {
			mark = "  <- best"
		}
		tb.AddRow(
			fmt.Sprintf("%.0f%%", pt.FracA*100),
			report.FormatFloat(pt.Result.PerfA),
			report.FormatFloat(pt.Result.PerfB),
			report.FormatFloat(pt.WeightedSpeedup)+mark,
		)
	}
	fmt.Print(tb.String())
	b := parts[best]
	fmt.Printf("\nbest: %.0f%% cores to %s; slowdowns %.2f / %.2f; package %v, dram %v\n",
		b.FracA*100, wa.Name, b.Result.SlowdownA, b.Result.SlowdownB,
		b.Result.ProcPower, b.Result.MemPower)
	return nil
}

func cmdGPUStat(args []string) error {
	fs := flag.NewFlagSet("gpustat", flag.ExitOnError)
	platform := fs.String("platform", "titanxp", "GPU platform name")
	wl := fs.String("workload", "sgemm", "GPU workload providing the activity level")
	cap := fs.Float64("cap", 0, "board power cap in watts (0 = TDP)")
	memClock := fs.Float64("memclock", 0, "memory clock in MHz (0 = nominal)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, w, err := resolve(*platform, *wl)
	if err != nil {
		return err
	}
	if p.Kind != hw.KindGPU {
		return fmt.Errorf("gpustat needs a GPU platform")
	}
	gov := nvgov.New(p.GPU)
	if *cap > 0 {
		if err := gov.SetPowerCap(units.Power(*cap)); err != nil {
			return err
		}
	}
	if *memClock > 0 {
		gov.SetMemClock(units.Frequency(*memClock) * units.Megahertz)
	}
	// Derive the steady-state activity by running the workload once.
	c := units.Power(*cap)
	if c == 0 {
		c = p.GPU.TDP
	}
	clk := gov.MemClock()
	res, err := sim.RunGPU(p, &w, c, clk)
	if err != nil {
		return err
	}
	act := 0.0
	for _, ph := range res.Phases {
		act += ph.Weight * ph.Activity
	}
	fmt.Print(gov.Query(act).String())
	return nil
}

func cmdPowercap(args []string) error {
	fs := flag.NewFlagSet("powercap", flag.ExitOnError)
	platform := fs.String("platform", "ivybridge", "CPU platform name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := hw.PlatformByName(*platform)
	if err != nil {
		return err
	}
	if p.Kind != hw.KindCPU {
		return fmt.Errorf("powercap needs a CPU platform")
	}
	pcfs := rapl.NewPowercapFS(rapl.NewController(p.CPU, p.DRAM))
	rest := fs.Args()
	switch len(rest) {
	case 0: // list all files with values
		for _, path := range pcfs.List() {
			v, err := pcfs.Read(path)
			if err != nil {
				return err
			}
			fmt.Printf("%-46s %s\n", path, v)
		}
	case 1: // read one file
		v, err := pcfs.Read(rest[0])
		if err != nil {
			return err
		}
		fmt.Println(v)
	case 2: // write then read back
		if err := pcfs.Write(rest[0], rest[1]); err != nil {
			return err
		}
		v, err := pcfs.Read(rest[0])
		if err != nil {
			return err
		}
		fmt.Println(v)
	default:
		return fmt.Errorf("powercap: usage [zone/file [value]]")
	}
	return nil
}

func cmdSynth(args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	platform := fs.String("platform", "ivybridge", "CPU platform name")
	intensity := fs.Float64("intensity", 1.0, "arithmetic intensity in ops/byte")
	random := fs.Float64("random", 0, "random-access fraction in [0,1]")
	vector := fs.Float64("vector", 0.6, "vectorization quality in [0,1]")
	overlapQ := fs.Float64("overlap", 0.6, "compute/memory overlap quality in [0,1]")
	imbalance := fs.Float64("imbalance", 0, "two-phase traffic imbalance in [0,1]")
	budget := fs.Float64("budget", 208, "node power budget in watts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := hw.PlatformByName(*platform)
	if err != nil {
		return err
	}
	if p.Kind != hw.KindCPU {
		return fmt.Errorf("synth needs a CPU platform")
	}
	spec := workload.SyntheticSpec{
		Name: "custom", Kind: hw.KindCPU,
		OpsPerByte: *intensity, Randomness: *random,
		Vectorized: *vector, OverlapQuality: *overlapQ,
		PhaseImbalance: *imbalance,
	}
	w, err := spec.Build()
	if err != nil {
		return err
	}
	prof, err := profile.ProfileCPU(p, w)
	if err != nil {
		return err
	}
	fmt.Printf("profile: CPU demand %v, DRAM demand %v, productive threshold %v\n",
		prof.Critical.CPUMax, prof.Critical.MemMax, prof.Critical.ProductiveThreshold())
	b := units.Power(*budget)
	d := coord.CPU(prof, b)
	if d.Status == coord.StatusTooSmall {
		fmt.Printf("COORD rejects %v: below the productive threshold\n", b)
		return nil
	}
	res, err := sim.RunCPU(p, &w, d.Alloc.Proc, d.Alloc.Mem)
	if err != nil {
		return err
	}
	bestPb := core.NewProblem(p, w, b)
	best, err := bestPb.PerfMax()
	if err != nil {
		return err
	}
	fmt.Printf("COORD %v -> %s GFLOP/s (sweep best %s; ratio %.3f)\n",
		d.Alloc, report.FormatFloat(res.Perf),
		report.FormatFloat(best.Result.Perf), res.Perf/best.Result.Perf)
	return nil
}

func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	platform := fs.String("platform", "", "platform to validate (empty = full catalog)")
	wl := fs.String("workload", "", "workload to validate against (empty = reference)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var issues []validate.Issue
	switch {
	case *platform == "":
		issues = validate.Catalog()
	case *wl == "":
		p, err := hw.PlatformByName(*platform)
		if err != nil {
			return err
		}
		issues = validate.Platform(p)
	default:
		p, w, err := resolve(*platform, *wl)
		if err != nil {
			return err
		}
		issues = validate.Pair(p, w)
	}
	if len(issues) == 0 {
		fmt.Println("ok: all invariants hold")
		return nil
	}
	for _, i := range issues {
		fmt.Println(i)
	}
	return fmt.Errorf("%d invariant violation(s)", len(issues))
}

func cmdRoofline(args []string) error {
	fs := flag.NewFlagSet("roofline", flag.ExitOnError)
	platform, wl := platformAndWorkload(fs)
	budget := fs.Float64("budget", 208, "total power budget in watts")
	svgPath := fs.String("svg", "", "write an SVG roofline chart to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, w, err := resolve(*platform, *wl)
	if err != nil {
		return err
	}
	if p.Kind != hw.KindCPU {
		return fmt.Errorf("roofline supports CPU platforms")
	}
	b := units.Power(*budget)
	free, err := roofline.ForCPU(p, 0, 0)
	if err != nil {
		return err
	}
	fmt.Printf("uncapped roofline: compute %s, bandwidth %s, ridge %.2f ops/byte\n",
		free.ComputeRoof, free.BandwidthRoof, free.Ridge)
	fmt.Printf("%s intensity: %.3g ops/byte -> %s on the uncapped roofline\n",
		w.Name, w.ComputeIntensity(), free.Bound(&w))
	proc, mem, m, err := roofline.BalancedAllocation(p, &w, b, 4)
	if err != nil {
		return err
	}
	fmt.Printf("roofline-balanced allocation at %s: cpu %s / mem %s (ridge %.2f, predicted %s)\n",
		b, proc, mem, m.Ridge, m.PredictedPerf(p, &w))
	res, err := sim.RunCPU(p, &w, proc, mem)
	if err != nil {
		return err
	}
	bestPb := core.NewProblem(p, w, b)
	best, err := bestPb.PerfMax()
	if err != nil {
		return err
	}
	fmt.Printf("simulated: %s %s (sweep best %s; ratio %.3f)\n",
		report.FormatFloat(res.Perf), w.PerfUnit,
		report.FormatFloat(best.Result.Perf), res.Perf/best.Result.Perf)
	if *svgPath != "" {
		quarter := units.Power(b.Watts() / 4)
		fig, err := roofline.Chart(p, &w, b, []units.Power{quarter, 2 * quarter, 3 * quarter})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*svgPath, []byte(fig.SVG()), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}
	return nil
}

func cmdCalibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	platform, wl := platformAndWorkload(fs)
	procW := fs.Float64("proc", 0, "measured uncapped package power in watts (0 = skip)")
	memW := fs.Float64("mem", 0, "measured uncapped DRAM power in watts (0 = skip)")
	perf := fs.Float64("perf", 0, "measured performance in the workload's unit (0 = skip)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, w, err := resolve(*platform, *wl)
	if err != nil {
		return err
	}
	if p.Kind != hw.KindCPU {
		return fmt.Errorf("calibrate supports CPU platforms")
	}
	res, err := calibrate.Fit(p, w, calibrate.Anchors{
		ProcPower: units.Power(*procW),
		MemPower:  units.Power(*memW),
		Perf:      *perf,
	})
	if err != nil {
		return err
	}
	fmt.Printf("fit in %d simulator runs; residuals: proc %.1f%%, mem %.1f%%, perf %.1f%% (converged=%v)\n",
		res.Iterations, res.ProcErr*100, res.MemErr*100, res.PerfErr*100, res.Converged())
	final, err := sim.RunCPU(p, &res.Workload, 0, 0)
	if err != nil {
		return err
	}
	fmt.Printf("calibrated uncapped run: %s %s, proc %v, mem %v\n",
		report.FormatFloat(final.Perf), w.PerfUnit, final.ProcPower, final.MemPower)
	tb := report.NewTable("fitted phase parameters", "phase", "bw eff", "compute eff", "activity (busy/stalled)")
	for _, ph := range res.Workload.Phases {
		tb.AddRow(ph.Name, report.FormatFloat(ph.BandwidthEff), report.FormatFloat(ph.ComputeEff),
			fmt.Sprintf("%.2f / %.2f", ph.ActivityBase, ph.StallActivity))
	}
	fmt.Print(tb.String())
	return nil
}
