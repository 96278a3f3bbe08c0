package repro

import (
	"testing"
	"time"

	"repro/internal/ablation"
	"repro/internal/biglittle"
	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/dyncoord"
	"repro/internal/evalpool"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/profile"
	"repro/internal/roofline"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/validate"
	"repro/internal/workload"
)

// Each paper artifact has a bench that regenerates it end to end, so
// "go test -bench=Fig3" reproduces Figure 3 and reports how long the
// regeneration takes. The micro-benches below time the simulator
// building blocks.

func benchArtifact(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := r.Run()
		if err != nil {
			b.Fatal(err)
		}
		if !out.Passed() {
			for _, f := range out.Findings {
				if !f.Pass {
					b.Fatalf("%s claim failed: %s", id, f)
				}
			}
		}
	}
}

func BenchmarkFig1(b *testing.B)     { benchArtifact(b, "fig1") }
func BenchmarkFig2(b *testing.B)     { benchArtifact(b, "fig2") }
func BenchmarkFig3(b *testing.B)     { benchArtifact(b, "fig3") }
func BenchmarkFig4(b *testing.B)     { benchArtifact(b, "fig4") }
func BenchmarkFig5(b *testing.B)     { benchArtifact(b, "fig5") }
func BenchmarkTable1(b *testing.B)   { benchArtifact(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchArtifact(b, "table2") }
func BenchmarkTable3(b *testing.B)   { benchArtifact(b, "table3") }
func BenchmarkFig6(b *testing.B)     { benchArtifact(b, "fig6") }
func BenchmarkFig7(b *testing.B)     { benchArtifact(b, "fig7") }
func BenchmarkFig8(b *testing.B)     { benchArtifact(b, "fig8") }
func BenchmarkFig9(b *testing.B)     { benchArtifact(b, "fig9") }
func BenchmarkInsights(b *testing.B) { benchArtifact(b, "insights") }

// ----- micro-benches on the simulator building blocks -----

func BenchmarkSimRunCPU(b *testing.B) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("mg")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunCPU(p, &w, 130, 110); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimRunGPU(b *testing.B) {
	p, err := hw.PlatformByName("titanxp")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("sgemm")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunGPU(p, &w, 200, p.GPU.Mem.ClockNom); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRunBoundCPU and BenchmarkSimRunBoundGPU time the runs of
// BenchmarkSimRunCPU and BenchmarkSimRunGPU on a warm bound model
// (sim.Bind): validation and operating points already tabled,
// as in a decision-table build's thousands of runs of one pair.
func BenchmarkSimRunBoundCPU(b *testing.B) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("mg")
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.Bind(p, &w, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.RunCPU(130, 110); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunCPU(130, 110); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimRunBoundGPU(b *testing.B) {
	p, err := hw.PlatformByName("titanxp")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("sgemm")
	if err != nil {
		b.Fatal(err)
	}
	m, err := sim.Bind(p, &w, sim.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.RunGPU(200, p.GPU.Mem.ClockNom); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunGPU(200, p.GPU.Mem.ClockNom); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileCPU(b *testing.B) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("sra")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := profile.ProfileCPU(p, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoordDecision(b *testing.B) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("sra")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := profile.ProfileCPU(p, w)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := coord.CPU(prof, units.Power(160+i%120))
		_ = d
	}
}

func BenchmarkExhaustiveSweep(b *testing.B) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("stream")
	if err != nil {
		b.Fatal(err)
	}
	pb := core.NewProblem(p, w, 208)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pb.Sweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepSerialVsParallel compares the one-worker reference
// engine with a GOMAXPROCS-worker one on the same work: full budget
// sweeps for three CPU workloads (the BenchmarkFig1/Fig2 evaluation
// pattern). Sweep points are plain simulator calls, so the memo bound
// does not enter.
func BenchmarkSweepSerialVsParallel(b *testing.B) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		b.Fatal(err)
	}
	var wls []workload.Workload
	for _, name := range []string{"stream", "dgemm", "mg"} {
		w, err := workload.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		wls = append(wls, w)
	}
	sweepAll := func(b *testing.B, e *evalpool.Engine) {
		b.Helper()
		for _, w := range wls {
			pb := core.NewProblem(p, w, 208)
			pb.Engine = e
			evals, err := pb.Sweep()
			if err != nil {
				b.Fatal(err)
			}
			if len(evals) == 0 {
				b.Fatal("empty sweep")
			}
		}
	}
	b.Run("serial", func(b *testing.B) {
		e := evalpool.Serial()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweepAll(b, e)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		e := evalpool.New(evalpool.Options{})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweepAll(b, e)
		}
	})
}

func BenchmarkBudgetCurve(b *testing.B) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("dgemm")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sweep.BudgetCurve(p, w, 130, 300, 18); err != nil {
			b.Fatal(err)
		}
	}
}

// ----- extension benches -----

func BenchmarkAblationDutyGating(b *testing.B) {
	r, err := ablation.ByID("duty-gating")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicCoordination(b *testing.B) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("ft")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := dyncoord.Compare(p, w, 200); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBigLittleCoordinate(b *testing.B) {
	n := biglittle.Reference()
	w, err := workload.ByName("stream")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := biglittle.Coordinate(n, w, 90); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClusterQueue(b *testing.B) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		b.Fatal(err)
	}
	var nodes []cluster.Node
	for i := 0; i < 4; i++ {
		nodes = append(nodes, cluster.Node{ID: string(rune('a' + i)), Platform: p})
	}
	mkJobs := func() []cluster.TimedJob {
		var jobs []cluster.TimedJob
		for i, name := range []string{"dgemm", "stream", "mg", "ep", "cg", "bt"} {
			w, err := workload.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, cluster.TimedJob{
				Job:   cluster.Job{ID: name + string(rune('0'+i)), Workload: w},
				Units: 1e13,
			})
		}
		return jobs
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := cluster.NewScheduler(700, nodes)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := des.Run(des.Config{Sched: s, Jobs: mkJobs(), Policy: cluster.PolicyCoord}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceRun(b *testing.B) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("bt")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := trace.RunCPU(p, &w, 140, 110, 1e13, 50*time.Millisecond); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRooflineAllocator(b *testing.B) {
	p, err := hw.PlatformByName("ivybridge")
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.ByName("mg")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := roofline.BalancedAllocation(p, &w, 208, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidateBattery(b *testing.B) {
	p, err := hw.PlatformByName("haswell")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if issues := validate.Platform(p); len(issues) != 0 {
			b.Fatalf("issues: %v", issues)
		}
	}
}
