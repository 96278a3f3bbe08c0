package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/powertree"
	"repro/internal/report"
	"repro/internal/units"
)

// defaultArrivalSpec is a representative bursty diurnal arrival mix for
// the DES demo: about one arrival event per 20 simulated seconds,
// small geometric bursts, a mild day/night swing, and job sizes spread
// around the catalog default.
const defaultArrivalSpec = "rate=0.05,burst=1.5,diurnal=0.3,period=3600,units=2e12,spread=0.5"

func cmdDes(args []string) error {
	fs := flag.NewFlagSet("des", flag.ExitOnError)
	platform, wl := platformAndWorkload(fs)
	budget := fs.Float64("budget", 208, "per-node power bound in watts")
	nNodes := fs.Int("nodes", 16, "cluster node count (ignored with -tree-spec)")
	treeSpec := fs.String("tree-spec", "",
		"derive the cluster from a budget-tree solve: -budget becomes the datacenter total, "+
			"nodes are the kept CPU leaves, and the pool is their tree grant")
	arrival := fs.String("arrival-spec", defaultArrivalSpec, "arrival spec (key=value,...; see internal/des)")
	seed := fs.Uint64("seed", 1, "arrival-process seed; same seed = identical trace")
	horizonS := fs.Float64("horizon", 3600, "arrival window in simulated seconds")
	jobs0 := fs.Int("jobs0", 0, "round-synchronous jobs injected at t=0 ahead of the arrival trace")
	faultSpec := fs.String("fault-spec", "", "fault spec for outages/shocks (empty = fault-free; see internal/faults)")
	faultSeed := fs.Uint64("fault-seed", 1, "fault injection seed")
	mode := fs.String("mode", "fast", "engine: fast (scales) or exact (per-job results, golden-pinned)")
	fifo := fs.Bool("fifo", false, "strict FIFO queue order instead of power-aware backfill")
	replay := fs.Bool("replay-check", false, "run twice and fail unless the traces replay byte-identically")
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
	if *budget <= 0 {
		return fmt.Errorf("budget must be positive, got %g W", *budget)
	}
	if *nNodes <= 0 {
		return fmt.Errorf("nodes must be positive, got %d", *nNodes)
	}
	arr, err := des.ParseArrivalSpec(*arrival)
	if err != nil {
		return err
	}
	m, err := des.ParseMode(*mode)
	if err != nil {
		return err
	}
	disc := cluster.DisciplineBackfill
	if *fifo {
		disc = cluster.DisciplineFIFO
	}

	var nodes []cluster.Node
	pool := units.Power(*budget * float64(*nNodes))
	if *treeSpec != "" {
		// The tree solve divides the datacenter budget; the DES cluster is
		// its kept CPU leaves, powered by exactly their tree grants. The
		// solve is deterministic, so -replay-check determinism carries
		// through unchanged.
		tree, err := powertree.ParseTreeSpec(*treeSpec)
		if err != nil {
			return err
		}
		tres, err := powertree.Solve(tree, units.Power(*budget))
		if err != nil {
			return err
		}
		pool = 0
		for _, g := range tres.Grants {
			tp, err := hw.PlatformByName(g.Platform)
			if err != nil {
				return err
			}
			if tp.Kind != hw.KindCPU {
				continue
			}
			nodes = append(nodes, cluster.Node{ID: g.Node, Platform: tp})
			pool += g.Budget
		}
		if len(nodes) == 0 {
			return fmt.Errorf("tree-spec: no CPU leaves kept at %s (floor demand exceeds the budget?)", units.Power(*budget))
		}
		fmt.Printf("tree: %s granted of %s requested; cluster = %d kept CPU leaves, pool %s (%d leaves shed)\n",
			tres.Granted, tres.Budget, len(nodes), pool, len(tres.Shed))
	} else {
		nodes = make([]cluster.Node, *nNodes)
		for i := range nodes {
			nodes[i] = cluster.Node{ID: fmt.Sprintf("node%05d", i), Platform: p}
		}
	}
	sched, err := cluster.NewScheduler(pool, nodes)
	if err != nil {
		return err
	}
	unitsPer := arr.Units
	if unitsPer == 0 {
		unitsPer = 2e12
	}
	var t0 []cluster.TimedJob
	for i := 0; i < *jobs0; i++ {
		t0 = append(t0, cluster.TimedJob{
			Job:   cluster.Job{ID: fmt.Sprintf("job%05d", i), Workload: w},
			Units: unitsPer,
		})
	}
	cfg := des.Config{
		Sched: sched, Workload: w,
		Policy: cluster.PolicyCoord, Discipline: disc,
		Jobs: t0, Arrivals: arr, Seed: *seed, Horizon: *horizonS,
		Mode: m,
	}
	if *faultSpec != "" {
		sp, err := faults.ParseSpec(*faultSpec)
		if err != nil {
			return err
		}
		if !sp.Zero() {
			cfg.Injector = faults.NewInjector(sp, *faultSeed)
		}
	}

	wall := time.Now()
	res, err := des.Run(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(wall)

	tb := report.NewTable(
		fmt.Sprintf("discrete-event simulation: %d x %s running %s (%s engine, seed %d)",
			len(nodes), p.Name, w.Name, res.Mode, *seed),
		"metric", "value")
	tb.AddRow("arrival spec", arr.String())
	tb.AddRow("horizon", fmtSeconds(*horizonS))
	tb.AddRow("jobs arrived", fmt.Sprintf("%d", res.Arrived))
	tb.AddRow("jobs completed", fmt.Sprintf("%d", res.Completed))
	tb.AddRow("engine events", fmt.Sprintf("%d", res.EngineEvents))
	tb.AddRow("makespan", fmtSeconds(res.Makespan))
	tb.AddRow("energy", res.Energy.String())
	tb.AddRow("avg wait", fmtSeconds(res.AvgWait))
	tb.AddRow("avg turnaround", fmtSeconds(res.AvgTurnaround))
	tb.AddRow("max slowdown", fmt.Sprintf("%.2fx", res.MaxSlowdown))
	if cfg.Injector != nil {
		tb.AddRow("node failures", fmt.Sprintf("%d", res.Faults.NodeFailures))
		tb.AddRow("node recoveries", fmt.Sprintf("%d", res.Faults.NodeRecoveries))
		tb.AddRow("job re-admissions", fmt.Sprintf("%d", res.Faults.Readmissions))
		tb.AddRow("budget shocks", fmt.Sprintf("%d", res.Faults.Shocks))
		tb.AddRow("budget reclaimed", res.Faults.BudgetReclaimed.String())
	}
	tb.AddRow("trace hash", fmt.Sprintf("%016x", res.TraceHash))
	fmt.Print(tb.String())
	if secs := elapsed.Seconds(); secs > 0 {
		fmt.Printf("\nwall %v  (%.3gM events/s, %.3gk jobs/s)\n",
			elapsed.Round(time.Millisecond),
			float64(res.EngineEvents)/secs/1e6, float64(res.Completed)/secs/1e3)
	}

	if *replay {
		again, err := des.Run(cfg)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if again.TraceHash != res.TraceHash || again.Makespan != res.Makespan {
			return fmt.Errorf("replay diverged: trace %016x vs %016x, makespan %g vs %g",
				res.TraceHash, again.TraceHash, res.Makespan, again.Makespan)
		}
		fmt.Printf("replay check: OK (trace %016x reproduced)\n", res.TraceHash)
	}
	return nil
}
