package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/units"
)

// defaultFaultSpec is a representative mixed-fault scenario: lossy noisy
// sensors, unreliable cap actuation, node crashes with repair, and
// occasional facility budget shocks.
const defaultFaultSpec = "sensor.drop=0.05,sensor.noise=0.02,cap.fail=0.1,cap.stuck=0.05," +
	"node.mtbf=45,node.mttr=30,shock.mtbs=60,shock.frac=0.25,shock.len=10"

func cmdFaults(args []string) error {
	fs := flag.NewFlagSet("faults", flag.ExitOnError)
	platform, wl := platformAndWorkload(fs)
	budget := fs.Float64("budget", 208, "node power bound in watts")
	unitsN := fs.Float64("units", 2e12, "work units per node run")
	dtMs := fs.Int("dt", 250, "control loop step in milliseconds")
	spec := fs.String("fault-spec", defaultFaultSpec, "fault spec (key=value,...; see internal/faults)")
	seed := fs.Uint64("fault-seed", 1, "fault injection seed; same seed = identical run")
	nNodes := fs.Int("nodes", 3, "cluster demo node count (0 = skip the cluster demo)")
	logLines := fs.Int("log", 6, "transition-log lines to print per section (0 = none)")
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
		return fmt.Errorf("faults supports CPU platforms")
	}
	if *budget <= 0 {
		return fmt.Errorf("budget must be positive, got %g W", *budget)
	}
	sp, err := faults.ParseSpec(*spec)
	if err != nil {
		return err
	}
	bound := units.Power(*budget)
	dt := time.Duration(*dtMs) * time.Millisecond

	// Node-level sweep: the same run at increasing fault rates, against
	// the fault-free baseline (scale 0).
	scales := []float64{0, 0.5, 1, 2}
	tb := report.NewTable(
		fmt.Sprintf("resilience sweep: %s on %s at %s (seed %d)", w.Name, p.Name, bound, *seed),
		"fault scale", "elapsed", "perf retained", "worst overshoot", "over-tolerance time",
		"retries", "readback hits", "watchdog", "shocks", "sensor drops")
	var baseRate float64
	var lastLog *trace.EventLog
	for _, sc := range scales {
		scaled := sp.Scale(sc)
		var inj *faults.Injector
		if !scaled.Zero() {
			inj = faults.NewInjector(scaled, *seed)
		}
		log := &trace.EventLog{}
		res, err := faults.RunNode(p, w, bound, *unitsN, dt, inj, log)
		if err != nil {
			return fmt.Errorf("scale %g: %w", sc, err)
		}
		if sc == 0 {
			baseRate = res.Rate
		}
		retained := "-"
		if baseRate > 0 {
			retained = fmt.Sprintf("%.1f%%", res.Rate/baseRate*100)
		}
		tb.AddRow(
			fmt.Sprintf("%gx", sc),
			res.Elapsed.Round(time.Millisecond).String(),
			retained,
			res.WorstOvershoot.String(),
			res.OvershootTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%d", res.Retry.Retries),
			fmt.Sprintf("%d", res.Retry.ReadbackMismatches),
			fmt.Sprintf("%d", res.WatchdogEngagements),
			fmt.Sprintf("%d", res.Shocks),
			fmt.Sprintf("%d/%d", res.SensorDrops, res.SensorReads),
		)
		if !scaled.Zero() {
			lastLog = log
		}
	}
	fmt.Print(tb.String())
	fmt.Printf("\nguard tolerance: %s over the bound; spec: %s\n", faults.GuardTolerance, sp)
	printLogTail("node transitions (highest fault scale)", lastLog, *logLines)

	if *nNodes <= 0 {
		return nil
	}

	// Cluster demo: node failures, re-admissions, and budget shocks under
	// the same spec and seed.
	nodes := make([]cluster.Node, *nNodes)
	for i := range nodes {
		nodes[i] = cluster.Node{ID: fmt.Sprintf("node%02d", i), Platform: p}
	}
	clusterBudget := units.Power(bound.Watts() * float64(*nNodes))
	sched, err := cluster.NewScheduler(clusterBudget, nodes)
	if err != nil {
		return err
	}
	var jobs []cluster.TimedJob
	for i := 0; i < 2*(*nNodes); i++ {
		jobs = append(jobs, cluster.TimedJob{
			Job:   cluster.Job{ID: fmt.Sprintf("job%02d", i), Workload: w},
			Units: *unitsN,
		})
	}
	cfg := des.Config{
		Sched: sched, Jobs: jobs,
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
	}
	cleanRes, err := des.Run(cfg)
	if err != nil {
		return err
	}
	log := &trace.EventLog{}
	cfg.Injector, cfg.Log = faults.NewInjector(sp, *seed), log
	faultyRes, err := des.Run(cfg)
	if err != nil {
		return err
	}
	clean, faulty := cleanRes.Queue, faultyRes.Queue
	ct := report.NewTable(
		fmt.Sprintf("cluster demo: %d x %s, %d jobs, pool %s", *nNodes, p.Name, len(jobs), clusterBudget),
		"metric", "fault-free", "faulty")
	ct.AddRow("makespan", fmtSeconds(clean.Makespan), fmtSeconds(faulty.Makespan))
	ct.AddRow("jobs completed", fmt.Sprintf("%d/%d", len(clean.Stats), len(jobs)),
		fmt.Sprintf("%d/%d", len(faulty.Stats), len(jobs)))
	ct.AddRow("avg turnaround", fmtSeconds(clean.AvgTurnaround()), fmtSeconds(faulty.AvgTurnaround()))
	sum := faultyRes.Faults
	ct.AddRow("node failures", "0", fmt.Sprintf("%d", sum.NodeFailures))
	ct.AddRow("node recoveries", "0", fmt.Sprintf("%d", sum.NodeRecoveries))
	ct.AddRow("job re-admissions", "0", fmt.Sprintf("%d", sum.Readmissions))
	ct.AddRow("budget reclaimed", "0W", sum.BudgetReclaimed.String())
	ct.AddRow("budget shocks", "0", fmt.Sprintf("%d", sum.Shocks))
	fmt.Print(ct.String())
	if clean.Makespan > 0 {
		fmt.Printf("\nmakespan stretch under faults: %.2fx\n", faulty.Makespan/clean.Makespan)
	}
	printLogTail("cluster transitions", log, *logLines)
	return nil
}

func fmtSeconds(s float64) string {
	return fmt.Sprintf("%.2fs", s)
}

// printLogTail prints the first n transition-log lines (and a count of
// the rest), keeping the output short but deterministic.
func printLogTail(title string, log *trace.EventLog, n int) {
	if log == nil || n <= 0 || log.Len() == 0 {
		return
	}
	lines := strings.Split(strings.TrimRight(log.String(), "\n"), "\n")
	fmt.Printf("\n%s (%d total):\n", title, len(lines))
	for i, ln := range lines {
		if i >= n {
			fmt.Printf("  ... %d more\n", len(lines)-n)
			break
		}
		fmt.Println(ln)
	}
}
