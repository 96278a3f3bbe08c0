package invariant

import (
	"math"

	"repro/internal/cluster"
	"repro/internal/des"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/units"
	"repro/internal/workload"
)

// poolTol is the conservation slack for cluster pool accounting: grants
// and reclaimed surplus are sums of a handful of float64 watts, so any
// deviation beyond a micro-watt means the accounting leaked or minted
// power rather than accumulated rounding error.
const poolTol = units.Power(1e-6)

// clusterFaultSpec is the hostile schedule the fault-path conservation
// check runs under: frequent node failures with quick repair plus deep,
// frequent budget shocks, so jobs are evicted and re-admitted many
// times within a single run.
const clusterFaultSpec = "node.mtbf=30,node.mttr=10,shock.mtbs=25,shock.frac=0.5,shock.len=10"

// checkClusterPair audits the cluster scheduler's power accounting for
// one (platform, workload) pair:
//
//   - pool-nonneg: Outcome.PoolLeft never goes negative — the scheduler
//     cannot commit power it does not have;
//   - pool-conservation: granted budgets plus the remaining pool equal
//     the cluster budget exactly (surplus reclaim moves power, never
//     creates it), and the fault-injected queue engine preserves the
//     same identity through every shock eviction and re-admission;
//   - expected-power-sum: Outcome.TotalExpectedPower is exactly the sum
//     of the per-placement expected draws;
//   - schedule-complete: every job is either placed or deferred;
//   - schedule-work-conserving: a job deferred while a node of its
//     kind is still free sees PoolLeft below its productive threshold.
func checkClusterPair(cfg Config, c *collector, p hw.Platform, w workload.Workload) error {
	nodes := []cluster.Node{
		{ID: "n1", Platform: p},
		{ID: "n2", Platform: p},
	}
	threshold, maxTotal, err := cluster.Envelope(nodes[0], w)
	if err != nil {
		return err
	}
	jobs := []cluster.Job{
		{ID: "j1", Workload: w},
		{ID: "j2", Workload: w},
		{ID: "j3", Workload: w},
	}
	// One scheduler per pair keeps the profile cache warm across the
	// budget grid; the budget is re-pointed per round.
	s, err := cluster.NewScheduler(maxTotal, nodes)
	if err != nil {
		return err
	}

	// The grid brackets every admission regime: below the productive
	// threshold (everything deferred) to beyond both nodes' maximum
	// useful demand (surplus reclaim on every placement).
	lo := 0.5 * threshold
	hi := 2.2*maxTotal + 20
	n := cfg.BudgetPoints
	for i := 0; i < n; i++ {
		b := lo + (hi-lo)*units.Power(i)/units.Power(n-1)
		if b <= 0 {
			continue
		}
		s.Budget = b
		out, err := s.Schedule(jobs)
		if err != nil {
			return err
		}
		c.check("pool-nonneg", b, out.PoolLeft >= -poolTol,
			"PoolLeft %v negative", out.PoolLeft)

		var granted, expected units.Power
		for _, pl := range out.Placements {
			granted += pl.Budget
			expected += pl.ExpectedPower
		}
		dev := (granted + out.PoolLeft - b).Watts()
		c.check("pool-conservation", b, math.Abs(dev) <= poolTol.Watts(),
			"granted %v + pool %v deviates from budget by %.3g W",
			granted, out.PoolLeft, dev)
		pdev := (expected - out.TotalExpectedPower).Watts()
		c.check("expected-power-sum", b, math.Abs(pdev) <= poolTol.Watts(),
			"sum of placement draws %v vs TotalExpectedPower %v (Δ %.3g W)",
			expected, out.TotalExpectedPower, pdev)
		c.check("schedule-complete", b,
			len(out.Placements)+len(out.Deferred) == len(jobs),
			"%d placed + %d deferred != %d jobs",
			len(out.Placements), len(out.Deferred), len(jobs))
		// Every node and job of the fixture is of one platform and one
		// workload: each free node fits each deferred job, at threshold.
		free := len(nodes) - len(out.Placements)
		c.check("schedule-work-conserving", b,
			len(out.Deferred) == 0 || free == 0 || out.PoolLeft < threshold,
			"%d job(s) deferred with %d node(s) free and %v left, not below the %v threshold",
			len(out.Deferred), free, out.PoolLeft, threshold)
	}

	// Fault path: a shock- and failure-heavy run must preserve the pool
	// identity through every eviction and re-admission, and hand the
	// whole budget back once the queue drains.
	spec, err := faults.ParseSpec(clusterFaultSpec)
	if err != nil {
		return err
	}
	b := 2.2 * maxTotal
	s.Budget = b
	timed := []cluster.TimedJob{
		{Job: jobs[0], Units: 5e11},
		{Job: jobs[1], Units: 3e11},
		{Job: jobs[2], Units: 4e11},
	}
	res, err := des.Run(des.Config{
		Sched: s, Jobs: timed,
		Policy: cluster.PolicyCoord, Discipline: cluster.DisciplineBackfill,
		Injector: faults.NewInjector(spec, 7),
	})
	if err != nil {
		return err
	}
	c.check("pool-conservation", b,
		res.Faults.MaxConservationError <= poolTol,
		"faulty run conservation error %.3g W (%d readmissions, %d shocks)",
		res.Faults.MaxConservationError.Watts(), res.Faults.Readmissions, res.Faults.Shocks)
	c.check("pool-nonneg", b,
		math.Abs((res.Faults.PoolLeft-b).Watts()) <= poolTol.Watts(),
		"faulty run final pool %v != budget %v", res.Faults.PoolLeft, b)
	return nil
}
