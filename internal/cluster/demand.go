package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/units"
)

// BudgetPhase is one segment of a time-varying facility budget — the
// demand-response setting where the utility (or a datacenter-level
// manager) raises and lowers the cluster's power bound over the day.
type BudgetPhase struct {
	// Until is the end time of the segment in seconds; the last segment
	// should extend past any plausible makespan.
	Until float64
	// Budget is the cluster power bound during the segment.
	Budget units.Power
}

// DemandResult extends QueueResult with budget-tracking detail.
type DemandResult struct {
	QueueResult
	// Violations counts instants where granted power exceeded the
	// then-current budget (only possible at downward budget steps, and
	// only until enough jobs finish — real systems would throttle; this
	// simulation instead suspends jobs, so it must stay zero).
	Violations int
	// Suspensions counts job suspensions forced by budget drops.
	Suspensions int
}

// RunDemandResponse executes timed jobs under a time-varying budget. At
// each downward budget step, running jobs are suspended (most recently
// started first) until the granted power fits; suspended jobs resume —
// with their remaining work — when power returns. At each upward step,
// waiting and suspended jobs are reconsidered.
//
// Jobs keep their per-job grant (COORD split) across suspensions: RAPL
// caps are per-node state, so re-programming them on resume is free.
func (s *Scheduler) RunDemandResponse(jobs []TimedJob, phases []BudgetPhase) (DemandResult, error) {
	var res DemandResult
	res.Stats = map[string]JobStat{}
	if len(phases) == 0 {
		return res, fmt.Errorf("cluster: no budget phases")
	}
	for i := 1; i < len(phases); i++ {
		if phases[i].Until <= phases[i-1].Until {
			return res, fmt.Errorf("cluster: budget phases not strictly ordered at %d", i)
		}
	}
	for _, j := range jobs {
		if j.Units <= 0 {
			return res, fmt.Errorf("cluster: job %q has non-positive work", j.ID)
		}
	}

	type task struct {
		job       TimedJob
		node      Node
		remaining float64
		rate      float64
		power     units.Power
		budget    units.Power
		started   float64
		haveGrant bool
	}

	budgetAt := func(t float64) units.Power {
		for _, ph := range phases {
			if t < ph.Until {
				return ph.Budget
			}
		}
		return phases[len(phases)-1].Budget
	}

	now := 0.0
	var active []*task
	var paused []*task
	waiting := append([]TimedJob(nil), jobs...)
	freeNodes := append([]Node(nil), s.Nodes...)
	granted := units.Power(0)

	// start moves a task into the active set, computing its grant on
	// first start.
	start := func(tk *task) error {
		if !tk.haveGrant {
			_, maxTotal, err := s.envelope(tk.node, tk.job.Workload)
			if err != nil {
				return err
			}
			grant := budgetAt(now) - granted
			if grant > maxTotal {
				grant = maxTotal
			}
			p, err := s.place(tk.node, tk.job.Workload, grant, PolicyCoord)
			if err != nil {
				return err
			}
			if !p.ok {
				return errTooSmall
			}
			if p.rate <= 0 {
				return fmt.Errorf("cluster: job %q makes no progress", tk.job.ID)
			}
			tk.rate = p.rate.OpsPerSecond()
			tk.power = p.power
			tk.budget = grant - p.surplus
			tk.started = now
			tk.haveGrant = true
		}
		if tk.budget > budgetAt(now)-granted {
			return errTooSmall
		}
		granted += tk.budget
		active = append(active, tk)
		res.Events = append(res.Events, Event{Time: now, Kind: "start", JobID: tk.job.ID, NodeID: tk.node.ID})
		return nil
	}

	admit := func() error {
		// Resume paused tasks first (they hold nodes), then fresh jobs.
		var stillPaused []*task
		for _, tk := range paused {
			if err := start(tk); err == errTooSmall {
				stillPaused = append(stillPaused, tk)
			} else if err != nil {
				return err
			}
		}
		paused = stillPaused
		var stillWaiting []TimedJob
		for _, j := range waiting {
			if len(freeNodes) == 0 {
				stillWaiting = append(stillWaiting, j)
				continue
			}
			tk := &task{job: j, node: freeNodes[0], remaining: j.Units}
			if err := start(tk); err == errTooSmall {
				stillWaiting = append(stillWaiting, j)
				continue
			} else if err != nil {
				return err
			}
			freeNodes = freeNodes[1:]
		}
		waiting = stillWaiting
		return nil
	}

	// shed suspends tasks (latest started first) until granted power fits
	// the current budget.
	shed := func() {
		sort.SliceStable(active, func(i, j int) bool { return active[i].started < active[j].started })
		for granted > budgetAt(now) && len(active) > 0 {
			tk := active[len(active)-1]
			active = active[:len(active)-1]
			granted -= tk.budget
			paused = append(paused, tk)
			res.Suspensions++
			res.Events = append(res.Events, Event{Time: now, Kind: "suspend", JobID: tk.job.ID, NodeID: tk.node.ID})
		}
		if granted > budgetAt(now) {
			res.Violations++
		}
	}

	if err := admit(); err != nil {
		return res, err
	}
	if len(active) == 0 && len(waiting)+len(paused) > 0 {
		return res, fmt.Errorf("cluster: no job can start under the initial budget")
	}

	phaseIdx := 0
	for len(active)+len(paused) > 0 || len(waiting) > 0 {
		// Next event: a completion or a budget-phase boundary.
		nextDone, idx := math.Inf(1), -1
		for i, tk := range active {
			t := tk.remaining / tk.rate
			if t < nextDone {
				nextDone, idx = t, i
			}
		}
		nextBoundary := math.Inf(1)
		if phaseIdx < len(phases)-1 {
			nextBoundary = phases[phaseIdx].Until - now
		}
		if idx == -1 && math.IsInf(nextBoundary, 1) {
			return res, fmt.Errorf("cluster: deadlock — %d job(s) can never run", len(waiting)+len(paused))
		}

		step := math.Min(nextDone, nextBoundary)
		now += step
		for _, tk := range active {
			tk.remaining -= step * tk.rate
			res.Energy += units.Energy(tk.power.Watts() * step)
		}

		if nextBoundary <= nextDone {
			// Budget phase change.
			phaseIdx++
			shed()
			if err := admit(); err != nil {
				return res, err
			}
			continue
		}

		// Completion.
		done := active[idx]
		active = append(active[:idx], active[idx+1:]...)
		granted -= done.budget
		res.Stats[done.job.ID] = JobStat{
			Start: done.started, End: now,
			Budget: done.budget, Power: done.power, Rate: done.rate,
		}
		res.Events = append(res.Events, Event{Time: now, Kind: "finish", JobID: done.job.ID, NodeID: done.node.ID})
		freeNodes = append(freeNodes, done.node)
		if err := admit(); err != nil {
			return res, err
		}
		if len(active) == 0 && len(waiting)+len(paused) > 0 && phaseIdx >= len(phases)-1 {
			return res, fmt.Errorf("cluster: %d job(s) can never run in the final budget phase",
				len(waiting)+len(paused))
		}
	}
	res.Makespan = now
	return res, nil
}

// errTooSmall is the internal signal that a task cannot receive a
// productive grant right now.
var errTooSmall = fmt.Errorf("cluster: grant too small")
