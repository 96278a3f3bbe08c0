package des

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/units"
)

// runExact is the cluster queue engine. Jobs start when both a node and
// a productive power grant are available (Scheduler.AdmitWaiting, in
// queue order); grants are fixed for a job's lifetime and capped at its
// maximum demand; power returns to the pool when a job finishes, and
// waiting jobs are reconsidered at every event. Under an injector:
//
//   - when a node fails, its job's grant is reclaimed into the pool, the
//     job re-enters the queue head with its remaining work, and the
//     admission pass re-runs at once (admission re-splits with COORD
//     and reclaims the surplus);
//   - when a budget shock arrives, the pool shrinks by the shock
//     fraction of the cluster budget; if committed grants no longer fit,
//     the most recently started jobs are evicted the same way until they
//     do — the bound is never knowingly exceeded;
//   - when a node recovers or a shock ends, waiting jobs are
//     reconsidered at once.
//
// Generated arrivals are one more event class. A run whose jobs all
// arrive at t=0 reproduces the frozen goldens in testdata byte for
// byte. Do not "simplify" float expressions here; their shape is the
// contract.
func runExact(cfg Config, arrs []jobArrival) (Result, error) {
	out := Result{Mode: ModeExact}
	res := cluster.QueueResult{Stats: map[string]cluster.JobStat{}}
	var sum FaultSummary
	s := cfg.Sched
	log := cfg.Log

	for _, j := range cfg.Jobs {
		if j.Units <= 0 {
			return out, fmt.Errorf("cluster: job %q has non-positive work", j.ID)
		}
	}

	// Dense indices for the trace hash, and arrival times for the
	// streaming stats. Generated jobs are named a%06d; t=0 jobs keep
	// their caller-assigned IDs.
	jobIndex := make(map[string]int32, len(cfg.Jobs)+len(arrs))
	arrivalAt := make(map[string]float64, len(arrs))
	for _, j := range cfg.Jobs {
		jobIndex[j.ID] = int32(len(jobIndex))
	}
	arrJobs := make([]cluster.TimedJob, len(arrs))
	for i, a := range arrs {
		id := arrivalID(i)
		arrJobs[i] = cluster.TimedJob{
			Job:   cluster.Job{ID: id, Workload: cfg.Workload},
			Units: a.units,
		}
		jobIndex[id] = int32(len(jobIndex))
		arrivalAt[id] = a.at
	}
	nodeIndex := make(map[string]int32, len(s.Nodes))
	for i, n := range s.Nodes {
		nodeIndex[n.ID] = int32(i)
	}
	hash := newTraceHash()
	var stats agg

	// Fault schedules over a horizon accumulated in input order (t=0
	// jobs first, then the generated trace).
	var totalUnits float64
	for _, j := range cfg.Jobs {
		totalUnits += j.Units
	}
	for _, a := range arrs {
		totalUnits += a.units
	}
	horizon := faultHorizon(totalUnits)
	// Outage and shock edges are pulled as the event cursor reaches
	// them: the horizon runs far past the last job, and the faults beyond
	// it are never drawn. A nil injector yields none.
	outages := outageStream(cfg.Injector, s, horizon)
	shocks := cfg.Injector.ShockEdges(horizon, s.Budget)

	pool := s.Budget
	freeNodes := append([]cluster.Node(nil), s.Nodes...)
	waiting := append([]cluster.TimedJob(nil), cfg.Jobs...)
	var active []*cluster.RunningJob
	down := make([]bool, len(s.Nodes))
	nDown := 0
	firstStart := map[string]float64{}
	now := 0.0

	// shockHeld is the power currently withheld from the pool by active
	// budget shocks. At every event boundary the engine audits the
	// conservation identity pool + Σ(committed grants) + shockHeld ==
	// Budget; eviction/re-admission bugs that leak or mint power show up
	// as a growing deviation.
	shockHeld := units.Power(0)
	conserve := func() {
		var committed units.Power
		for _, r := range active {
			committed += r.Budget
		}
		dev := pool + committed + shockHeld - s.Budget
		if dev < 0 {
			dev = -dev
		}
		if dev > sum.MaxConservationError {
			sum.MaxConservationError = dev
		}
	}

	// admit runs an AdmitWaiting pass, preserves each job's first
	// admission time across re-admissions, and folds the newly appended
	// "start" events into the trace hash.
	admit := func() error {
		before, started := len(res.Events), len(active)
		var err error
		active, waiting, freeNodes, pool, err = s.AdmitWaiting(
			&res, active, waiting, freeNodes, pool, now, cfg.Policy, cfg.Discipline)
		if err != nil {
			return err
		}
		// AdmitWaiting only appends: the jobs before started carry their
		// first start already.
		for _, r := range active[started:] {
			if first, ok := firstStart[r.Job.ID]; ok {
				r.FirstStart = first
			} else {
				firstStart[r.Job.ID] = r.FirstStart
			}
		}
		for _, ev := range res.Events[before:] {
			hash.event(ev.Time, evStart, jobIndex[ev.JobID], nodeIndex[ev.NodeID])
		}
		return nil
	}

	// evict kills a running job, reclaims its grant, and re-queues it at
	// the head with its remaining work. keepNode returns the node to the
	// free list (budget-shock evictions: the node is healthy, only the
	// power is gone); node-failure evictions lose the node until its
	// recovery event.
	evict := func(idx int, keepNode bool) {
		r := active[idx]
		active = append(active[:idx], active[idx+1:]...)
		runtime := now - r.Started
		res.Energy += units.Energy(r.Power.Watts() * runtime)
		pool += r.Budget
		if keepNode {
			freeNodes = append(freeNodes, r.Node)
		}
		sum.BudgetReclaimed += r.Budget
		sum.Readmissions++
		cause := "node failure"
		if keepNode {
			cause = "budget shock"
			mEvictShock.Inc()
		} else {
			mEvictNodeFail.Inc()
		}
		mReadmissions.Inc()
		mReclaimedWatts.Add(r.Budget.Watts())
		j := r.Job
		j.Units = r.Remaining
		waiting = append([]cluster.TimedJob{j}, waiting...)
		res.Events = append(res.Events, cluster.Event{Time: now, Kind: "suspend", JobID: j.ID, NodeID: r.Node.ID})
		hash.event(now, evSuspend, jobIndex[j.ID], nodeIndex[r.Node.ID])
		if log != nil {
			log.Recordf(now, "budget-reclaim", j.ID, "%s returned to pool (%s)", r.Budget, cause)
			log.Recordf(now, "job-readmit", j.ID, "re-queued with %.3g work units left", j.Units)
		}
	}

	advance := func(dt float64) {
		now += dt
		for _, r := range active {
			r.Remaining -= dt * r.Rate
			if r.Remaining < 0 {
				r.Remaining = 0
			}
		}
	}

	if err := admit(); err != nil {
		return out, err
	}
	conserve()
	// At t=0 every node is up and the budget is unshocked, so a queue
	// that cannot start now can never start: faults only remove capacity.
	if len(active) == 0 && len(waiting) > 0 {
		return out, fmt.Errorf("cluster: no job can start (budget %v too small for every job): %w",
			s.Budget, cluster.ErrStarved)
	}

	ai := 0 // next arrival index
	steps := 0
	for ; len(active) > 0 || len(waiting) > 0 || ai < len(arrs); steps++ {
		conserve()
		if steps >= cfg.MaxEvents {
			return out, fmt.Errorf("cluster: fault engine exceeded %d events (spec too hostile?)", cfg.MaxEvents)
		}
		nextDone, di := math.Inf(1), -1
		for i, r := range active {
			t := r.Remaining / r.Rate
			if t < nextDone {
				nextDone, di = t, i
			}
		}
		nextOutage := math.Inf(1)
		if ev, ok := outages.Peek(); ok {
			nextOutage = ev.At - now
		}
		nextShock := math.Inf(1)
		if ev, ok := shocks.Peek(); ok {
			nextShock = ev.At - now
		}
		nextArr := math.Inf(1)
		if ai < len(arrs) {
			nextArr = arrs[ai].at - now
			if nextArr < 0 {
				nextArr = 0
			}
		}

		// Nothing running and no event left that could free a node or
		// power: starved. (Rates are positive, so an idle cluster is the
		// only way nextDone is infinite.)
		if math.IsInf(nextDone, 1) && math.IsInf(nextOutage, 1) && math.IsInf(nextShock, 1) && math.IsInf(nextArr, 1) {
			return out, fmt.Errorf("cluster: %d job(s) can never start (%d node(s) down, pool %v): %w",
				len(waiting), nDown, pool, cluster.ErrStarved)
		}

		switch {
		case nextOutage <= nextDone && nextOutage <= nextShock && nextOutage <= nextArr:
			ev := outages.Pop()
			advance(nextOutage)
			node := s.Nodes[ev.Node]
			if ev.Up {
				if !down[ev.Node] {
					continue // node was never taken down
				}
				down[ev.Node] = false
				nDown--
				freeNodes = append(freeNodes, node)
				sum.NodeRecoveries++
				mNodeRecoveries.Inc()
				res.Events = append(res.Events, cluster.Event{Time: now, Kind: "recover", NodeID: node.ID})
				hash.event(now, evNodeUp, -1, ev.Node)
				if log != nil {
					log.Record(now, "node-recover", node.ID, "node back in service")
				}
				if err := admit(); err != nil {
					return out, err
				}
				continue
			}
			if down[ev.Node] {
				continue
			}
			down[ev.Node] = true
			nDown++
			sum.NodeFailures++
			mNodeFailures.Inc()
			res.Events = append(res.Events, cluster.Event{Time: now, Kind: "fail", NodeID: node.ID})
			hash.event(now, evNodeFail, -1, ev.Node)
			if log != nil {
				log.Record(now, "node-fail", node.ID, "node lost")
			}
			// Remove the node from the free list if idle, or evict its
			// job; the evicted job is reconsidered at once on the
			// surviving nodes.
			removed := false
			for i, n := range freeNodes {
				if n.ID == node.ID {
					freeNodes = append(freeNodes[:i], freeNodes[i+1:]...)
					removed = true
					break
				}
			}
			if !removed {
				for i, r := range active {
					if r.Node.ID == node.ID {
						evict(i, false)
						break
					}
				}
			}
			if err := admit(); err != nil {
				return out, err
			}

		case nextShock <= nextDone && nextShock <= nextArr:
			ev := shocks.Pop()
			advance(nextShock)
			pool += ev.Delta
			shockHeld -= ev.Delta
			if ev.Delta < 0 {
				sum.Shocks++
				mShocks.Inc()
				hash.event(now, evShock, -1, -1)
				if log != nil {
					log.Recordf(now, "budget-shock", "facility", "pool reduced by %v", -ev.Delta)
				}
				// Evict the most recently started jobs until the
				// committed grants fit the shrunken budget again.
				for pool < 0 && len(active) > 0 {
					latest := 0
					for i, r := range active {
						if r.Started > active[latest].Started {
							latest = i
						}
					}
					evict(latest, true)
				}
			} else {
				hash.event(now, evRestore, -1, -1)
				if log != nil {
					log.Recordf(now, "budget-restore", "facility", "pool restored by %v", ev.Delta)
				}
			}
			if err := admit(); err != nil {
				return out, err
			}

		case nextArr <= nextDone:
			advance(nextArr)
			at := arrs[ai].at
			for ai < len(arrs) && arrs[ai].at == at {
				j := arrJobs[ai]
				waiting = append(waiting, j)
				hash.event(now, evArrive, jobIndex[j.ID], -1)
				ai++
			}
			if err := admit(); err != nil {
				return out, err
			}

		default:
			advance(nextDone)
			done := active[di]
			active = append(active[:di], active[di+1:]...)
			runtime := now - done.Started
			res.Energy += units.Energy(done.Power.Watts() * runtime)
			res.Stats[done.Job.ID] = cluster.JobStat{
				Start: done.FirstStart, End: now,
				Budget: done.Budget, Power: done.Power, Rate: done.Rate,
			}
			res.Events = append(res.Events, cluster.Event{Time: now, Kind: "finish", JobID: done.Job.ID, NodeID: done.Node.ID})
			hash.event(now, evFinish, jobIndex[done.Job.ID], nodeIndex[done.Node.ID])
			stats.finish(arrivalAt[done.Job.ID], done.FirstStart, now)
			pool += done.Budget
			freeNodes = append(freeNodes, done.Node)
			if err := admit(); err != nil {
				return out, err
			}
		}
	}
	conserve()
	sum.PoolLeft = pool + shockHeld
	res.Makespan = now
	sort.SliceStable(res.Events, func(i, j int) bool { return res.Events[i].Time < res.Events[j].Time })

	out.Arrived = len(cfg.Jobs) + len(arrs)
	out.EngineEvents = steps
	out.Makespan = res.Makespan
	out.Energy = res.Energy
	out.Faults = sum
	out.TraceHash = hash.h
	out.Queue = &res
	stats.fill(&out)
	return out, nil
}
