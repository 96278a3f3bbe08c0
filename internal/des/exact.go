package des

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/units"
)

// runExact executes the simulation by mirroring the cluster round loop
// (Scheduler.RunQueueOpts / RunQueueFaulty) operation for operation —
// the same AdmitWaiting calls, the same advance arithmetic, the same
// event ordering and accumulation order — with job arrivals layered in
// as one more event class. When every job arrives at t=0 (cfg.Jobs set,
// no arrival spec), the result is byte-identical to the round loop's:
// the golden equivalence the tests pin. Do not "simplify" float
// expressions here; their shape is the contract.
func runExact(cfg Config, arrs []jobArrival) (Result, error) {
	out := Result{Mode: ModeExact}
	res := cluster.FaultyQueueResult{QueueResult: cluster.QueueResult{Stats: map[string]cluster.JobStat{}}}
	s := cfg.Sched

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
		id := fmt.Sprintf("a%06d", i)
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

	// Fault schedules, built exactly as the round loop builds them: the
	// horizon accumulates total work in input order (t=0 jobs first,
	// then the generated trace). Outages are precomputed, since the
	// per-node schedules need a cross-node merge into one time order.
	var totalUnits float64
	for _, j := range cfg.Jobs {
		totalUnits += j.Units
	}
	for _, a := range arrs {
		totalUnits += a.units
	}
	horizon := faultHorizon(totalUnits)

	type outageEvent struct {
		at     float64
		nodeID string
		up     bool
	}
	var outages []outageEvent
	if cfg.Injector != nil {
		nodeIDs := make([]string, 0, len(s.Nodes))
		for _, n := range s.Nodes {
			nodeIDs = append(nodeIDs, n.ID)
		}
		sort.Strings(nodeIDs)
		for _, id := range nodeIDs {
			for _, o := range cfg.Injector.NodeOutages(id, horizon) {
				outages = append(outages, outageEvent{at: o.At, nodeID: id, up: false})
				if !math.IsInf(o.Duration, 1) {
					outages = append(outages, outageEvent{at: o.At + o.Duration, nodeID: id, up: true})
				}
			}
		}
		sort.SliceStable(outages, func(i, j int) bool {
			if outages[i].at != outages[j].at {
				return outages[i].at < outages[j].at
			}
			if outages[i].up != outages[j].up {
				return outages[i].up
			}
			return outages[i].nodeID < outages[j].nodeID
		})
	}
	// Shock edges are pulled as the event cursor reaches them: the
	// horizon runs far past the last job, and the shocks beyond it are
	// never drawn. A nil injector yields none.
	shocks := cfg.Injector.ShockEdges(horizon, s.Budget)

	pool := s.Budget
	freeNodes := append([]cluster.Node(nil), s.Nodes...)
	waiting := append([]cluster.TimedJob(nil), cfg.Jobs...)
	var active []*cluster.RunningJob
	down := map[string]bool{}
	firstStart := map[string]float64{}
	now := 0.0

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
		if dev > res.Faults.MaxConservationError {
			res.Faults.MaxConservationError = dev
		}
	}

	// admit wraps AdmitWaiting like the round loop does, preserving
	// each job's first admission time across re-admissions, and folds
	// the newly appended "start" events into the trace hash.
	admit := func() error {
		before := len(res.Events)
		var err error
		active, waiting, freeNodes, pool, err = s.AdmitWaiting(
			&res.QueueResult, active, waiting, freeNodes, pool, now, cfg.Policy, cfg.Discipline)
		if err != nil {
			return err
		}
		for _, r := range active {
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

	evict := func(idx int, keepNode bool) {
		r := active[idx]
		active = append(active[:idx], active[idx+1:]...)
		runtime := now - r.Started
		res.Energy += units.Energy(r.Power.Watts() * runtime)
		pool += r.Budget
		if keepNode {
			freeNodes = append(freeNodes, r.Node)
		}
		res.Faults.BudgetReclaimed += r.Budget
		res.Faults.Readmissions++
		j := r.Job
		j.Units = r.Remaining
		waiting = append([]cluster.TimedJob{j}, waiting...)
		res.Events = append(res.Events, cluster.Event{Time: now, Kind: "suspend", JobID: j.ID, NodeID: r.Node.ID})
		hash.event(now, evSuspend, jobIndex[j.ID], nodeIndex[r.Node.ID])
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
	if len(active) == 0 && len(waiting) > 0 {
		return out, fmt.Errorf("cluster: no job can start (budget %v too small for every job): %w",
			s.Budget, cluster.ErrStarved)
	}

	oi, ai := 0, 0 // next outage / arrival indices
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
		if oi < len(outages) {
			nextOutage = outages[oi].at - now
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

		if math.IsInf(nextDone, 1) && math.IsInf(nextOutage, 1) && math.IsInf(nextShock, 1) && math.IsInf(nextArr, 1) {
			return out, fmt.Errorf("cluster: %d job(s) can never start (%d node(s) down, pool %v): %w",
				len(waiting), len(down), pool, cluster.ErrStarved)
		}
		if di == -1 && len(waiting) > 0 &&
			math.IsInf(nextOutage, 1) && math.IsInf(nextShock, 1) && math.IsInf(nextArr, 1) {
			return out, fmt.Errorf("cluster: %d job(s) can never start under budget %v: %w",
				len(waiting), s.Budget, cluster.ErrStarved)
		}

		switch {
		case nextOutage <= nextDone && nextOutage <= nextShock && nextOutage <= nextArr:
			ev := outages[oi]
			oi++
			advance(nextOutage)
			if ev.up {
				if !down[ev.nodeID] {
					continue
				}
				delete(down, ev.nodeID)
				node, ok := nodeByID(s, ev.nodeID)
				if !ok {
					continue
				}
				freeNodes = append(freeNodes, node)
				res.Faults.NodeRecoveries++
				res.Events = append(res.Events, cluster.Event{Time: now, Kind: "recover", NodeID: ev.nodeID})
				hash.event(now, evNodeUp, -1, nodeIndex[ev.nodeID])
				if err := admit(); err != nil {
					return out, err
				}
				continue
			}
			if down[ev.nodeID] {
				continue
			}
			down[ev.nodeID] = true
			res.Faults.NodeFailures++
			res.Events = append(res.Events, cluster.Event{Time: now, Kind: "fail", NodeID: ev.nodeID})
			hash.event(now, evNodeFail, -1, nodeIndex[ev.nodeID])
			removed := false
			for i, n := range freeNodes {
				if n.ID == ev.nodeID {
					freeNodes = append(freeNodes[:i], freeNodes[i+1:]...)
					removed = true
					break
				}
			}
			if !removed {
				for i, r := range active {
					if r.Node.ID == ev.nodeID {
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
				res.Faults.Shocks++
				hash.event(now, evShock, -1, -1)
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
	res.Faults.PoolLeft = pool + shockHeld
	res.Makespan = now
	sort.SliceStable(res.Events, func(i, j int) bool { return res.Events[i].Time < res.Events[j].Time })

	out.Arrived = len(cfg.Jobs) + len(arrs)
	out.EngineEvents = steps
	out.Makespan = res.Makespan
	out.Energy = res.Energy
	out.Faults = res.Faults
	out.TraceHash = hash.h
	out.Queue = &res
	stats.fill(&out)
	return out, nil
}

// nodeByID finds a scheduler node, mirroring the round loop's lookup.
func nodeByID(s *cluster.Scheduler, id string) (cluster.Node, bool) {
	for _, n := range s.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return cluster.Node{}, false
}
