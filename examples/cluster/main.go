// Power-bounded cluster scheduling: divide a facility budget over nodes.
//
// Eight IvyBridge nodes and two Titan XP hosts share a 2000 W facility
// budget — not enough to run everything at full power. The scheduler
// profiles each queued job, admits jobs only when it can grant at least
// their productive threshold (a GPU job's card minimum cap), caps grants
// at each job's maximum demand, reclaims COORD's reported surplus, and
// boosts constrained jobs with what is left — the paper's node-level
// insights applied at cluster scale.
//
//	go run ./examples/cluster
package main

import (
	"fmt"
	"log"
	"os"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/hw"
	"repro/internal/report"
	"repro/internal/schedviz"
	"repro/internal/units"
	"repro/internal/workload"
)

func main() {
	node, err := hw.PlatformByName("ivybridge")
	if err != nil {
		log.Fatal(err)
	}
	gpuNode, err := hw.PlatformByName("titanxp")
	if err != nil {
		log.Fatal(err)
	}
	var nodes []cluster.Node
	for i := 0; i < 8; i++ {
		nodes = append(nodes, cluster.Node{
			ID:       fmt.Sprintf("node%02d", i),
			Platform: node,
		})
	}
	for i := 0; i < 2; i++ {
		nodes = append(nodes, cluster.Node{
			ID:       fmt.Sprintf("gpu%02d", i),
			Platform: gpuNode,
		})
	}

	const facilityBudget = units.Power(2000)
	sched, err := cluster.NewScheduler(facilityBudget, nodes)
	if err != nil {
		log.Fatal(err)
	}

	queue := []cluster.Job{
		job("dgemm-a", "dgemm"), job("mg-a", "mg"), job("stream-a", "stream"),
		job("sgemm-g", "sgemm"), job("sra-a", "sra"), job("bt-a", "bt"),
		job("minife-g", "minife"), job("cg-a", "cg"), job("ep-a", "ep"),
		job("ft-a", "ft"),
	}

	out, err := sched.Schedule(queue)
	if err != nil {
		log.Fatal(err)
	}
	if err := sched.Validate(out); err != nil {
		log.Fatal(err)
	}

	tb := report.NewTable(
		fmt.Sprintf("Schedule under a %s facility budget", facilityBudget),
		"job", "node", "granted", "split (proc/mem)", "expected perf", "actual draw")
	for _, pl := range out.Placements {
		tb.AddRow(pl.JobID, pl.NodeID,
			pl.Budget.String(),
			fmt.Sprintf("%.0f/%.0f W", pl.Alloc.Proc.Watts(), pl.Alloc.Mem.Watts()),
			report.FormatFloat(pl.ExpectedPerf),
			pl.ExpectedPower.String())
	}
	fmt.Print(tb.String())
	fmt.Printf("\nadmitted %d of %d jobs; deferred: %v\n",
		len(out.Placements), len(queue), out.Deferred)
	fmt.Printf("granted %s of %s; pool remaining %s; expected draw %s\n",
		facilityBudget-out.PoolLeft, facilityBudget, out.PoolLeft, out.TotalExpectedPower)
	fmt.Println("\ndeferred jobs wait for the next round rather than run below their")
	fmt.Println("productive threshold — power they would consume delivers almost no work.")

	// Run the same mix as a timed queue and render the schedule as a
	// Gantt chart (suspend/resume and node assignment become visible).
	timed := []cluster.TimedJob{
		{Job: queue[0], Units: 5e13}, {Job: queue[1], Units: 4e12},
		{Job: queue[2], Units: 4e12}, {Job: queue[4], Units: 3e9},
		{Job: queue[5], Units: 2e13}, {Job: queue[7], Units: 1.5e12},
		{Job: queue[8], Units: 2e13}, {Job: queue[9], Units: 1e13},
	}
	sched2, err := cluster.NewScheduler(900, nodes[:8])
	if err != nil {
		log.Fatal(err)
	}
	run, err := des.Run(des.Config{Sched: sched2, Jobs: timed, Policy: cluster.PolicyCoord})
	if err != nil {
		log.Fatal(err)
	}
	qres := run.Queue
	fmt.Printf("\ntimed queue at 900 W: makespan %.1f s, avg wait %.1f s, max slowdown %.2fx, energy %v\n",
		qres.Makespan, qres.AvgWait(), qres.MaxSlowdown(), qres.Energy)
	if err := os.WriteFile("schedule.svg", []byte(schedviz.Gantt("CPU queue under 900 W", qres)), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote schedule.svg (Gantt chart of the queue)")
}

func job(id, wl string) cluster.Job {
	w, err := workload.ByName(wl)
	if err != nil {
		log.Fatal(err)
	}
	return cluster.Job{ID: id, Workload: w}
}
