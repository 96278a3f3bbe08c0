package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/units"
)

// FaultSummary counts what the fault-aware queue engine handled.
type FaultSummary struct {
	// NodeFailures and NodeRecoveries count node outage transitions.
	NodeFailures, NodeRecoveries int
	// Readmissions counts jobs returned to the queue because their node
	// failed or a budget shock evicted them; each re-admission reclaims
	// the job's grant into the pool.
	Readmissions int
	// Shocks counts facility budget shocks applied.
	Shocks int
	// BudgetReclaimed is the total power returned to the pool by
	// failure- and shock-driven evictions.
	BudgetReclaimed units.Power
	// PoolLeft is the shock-adjusted uncommitted power at the end of the
	// run: the free pool plus any power still held back by unexpired
	// budget shocks. With every job complete it must equal the cluster
	// budget (up to float accumulation) — the pool-conservation
	// invariant `pbc verify` asserts.
	PoolLeft units.Power
	// MaxConservationError is the largest absolute deviation of
	// (pool + committed grants + shock-held power) from the cluster
	// budget observed at any event boundary. A non-trivial value means
	// re-admission accounting leaked or minted power.
	MaxConservationError units.Power
}

// FaultyQueueResult extends QueueResult with fault accounting.
type FaultyQueueResult struct {
	QueueResult
	Faults FaultSummary
}

// maxEngineEvents bounds the fault-aware event loop. Under any sane
// spec the loop terminates long before this; the bound converts a
// pathological spec (e.g. MTBF far below every job runtime) into an
// error instead of an unbounded spin.
const maxEngineEvents = 1_000_000

// RunQueueFaulty executes timed jobs to completion like RunQueueOpts
// while the injector disturbs the cluster: nodes fail and recover on the
// injector's deterministic schedule, and facility budget shocks shrink
// the pool for their duration. The engine keeps the paper's admission
// rules intact and adds the recovery semantics the issue demands:
//
//   - when a node fails, its job's grant is reclaimed into the pool, the
//     job re-enters the queue head with its remaining work, and the
//     admission pass re-runs immediately (surplus redistribution included,
//     since admission re-splits with COORD and reclaims surplus);
//   - when a budget shock arrives, the pool shrinks by the shock
//     fraction of the cluster budget; if committed grants no longer fit,
//     the most recently started jobs are evicted (grant reclaimed, job
//     re-queued) until they do — the bound is never knowingly exceeded;
//   - when a node recovers or a shock ends, waiting jobs are
//     reconsidered at once.
//
// Transitions are recorded into log (nil is fine). With the same jobs,
// spec, and seed, two runs produce identical results, event for event.
func (s *Scheduler) RunQueueFaulty(jobs []TimedJob, policy SplitPolicy, disc Discipline,
	inj *faults.Injector, log *trace.EventLog) (FaultyQueueResult, error) {

	res := FaultyQueueResult{QueueResult: QueueResult{Stats: map[string]JobStat{}}}
	for _, j := range jobs {
		if j.Units <= 0 {
			return res, fmt.Errorf("cluster: job %q has non-positive work", j.ID)
		}
	}

	// Fault schedules span a horizon scaled from the total work so they
	// cover any plausible makespan. Outages are precomputed (the per-node
	// schedules need a cross-node merge into one time order) and those
	// beyond the finish time simply never fire; shocks are drawn lazily,
	// so the ones past the finish are never generated.
	horizon := s.faultHorizon(jobs)

	type outageEvent struct {
		at     float64
		nodeID string
		up     bool // false = failure, true = recovery
	}
	var outages []outageEvent
	nodeIDs := make([]string, 0, len(s.Nodes))
	for _, n := range s.Nodes {
		nodeIDs = append(nodeIDs, n.ID)
	}
	sort.Strings(nodeIDs)
	for _, id := range nodeIDs {
		for _, o := range inj.NodeOutages(id, horizon) {
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
		// Recoveries before failures at equal times; then by node ID.
		if outages[i].up != outages[j].up {
			return outages[i].up
		}
		return outages[i].nodeID < outages[j].nodeID
	})

	// Shock edges are pulled from the injector as the run reaches them.
	shocks := inj.ShockEdges(horizon, s.Budget)

	pool := s.Budget
	freeNodes := append([]Node(nil), s.Nodes...)
	waiting := append([]TimedJob(nil), jobs...)
	var active []*RunningJob
	down := map[string]bool{}
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
		if dev > res.Faults.MaxConservationError {
			res.Faults.MaxConservationError = dev
		}
	}

	admit := func() error {
		var err error
		active, waiting, freeNodes, pool, err = s.AdmitWaiting(
			&res.QueueResult, active, waiting, freeNodes, pool, now, policy, disc)
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
		return nil
	}

	// evict kills a RunningJob job, reclaims its grant, and re-queues it at
	// the head with its remaining work. keepNode returns the node to the
	// free pool (budget-shock evictions: the node is healthy, only the
	// power is gone); node-failure evictions lose the node until its
	// recovery event.
	evict := func(idx int, kind string, keepNode bool) {
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
		if keepNode {
			mEvictShock.Inc()
		} else {
			mEvictNodeFail.Inc()
		}
		mReadmissions.Inc()
		mReclaimedWatts.Add(r.Budget.Watts())
		j := r.Job
		j.Units = r.Remaining
		waiting = append([]TimedJob{j}, waiting...)
		res.Events = append(res.Events, Event{Time: now, Kind: "suspend", JobID: j.ID, NodeID: r.Node.ID})
		log.Recordf(now, "budget-reclaim", j.ID, "%s returned to pool (%s)", r.Budget, kind)
		log.Recordf(now, "job-readmit", j.ID, "re-queued with %.3g work units left", j.Units)
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
		return res, err
	}
	conserve()
	// At t=0 every node is up and the budget is unshocked, so a queue
	// that cannot start now can never start: faults only remove capacity.
	if len(active) == 0 && len(waiting) > 0 {
		return res, fmt.Errorf("cluster: no job can start (budget %v too small for every job): %w",
			s.Budget, ErrStarved)
	}

	oi := 0 // next outage event index
	for steps := 0; len(active) > 0 || len(waiting) > 0; steps++ {
		conserve()
		if steps >= maxEngineEvents {
			return res, fmt.Errorf("cluster: fault engine exceeded %d events (spec too hostile?)", maxEngineEvents)
		}
		// Next event: completion, outage transition, or shock edge.
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

		if math.IsInf(nextDone, 1) && math.IsInf(nextOutage, 1) && math.IsInf(nextShock, 1) {
			return res, fmt.Errorf("cluster: %d job(s) can never start (%d node(s) down, pool %v): %w",
				len(waiting), len(down), pool, ErrStarved)
		}
		// Nothing RunningJob and no recovery/shock edge can change that:
		// starved even though events remain.
		if di == -1 && len(waiting) > 0 && math.IsInf(nextOutage, 1) && math.IsInf(nextShock, 1) {
			return res, fmt.Errorf("cluster: %d job(s) can never start under budget %v: %w",
				len(waiting), s.Budget, ErrStarved)
		}

		switch {
		case nextOutage <= nextDone && nextOutage <= nextShock:
			ev := outages[oi]
			oi++
			advance(nextOutage)
			if ev.up {
				if !down[ev.nodeID] {
					continue // node was never taken down (e.g. duplicate)
				}
				delete(down, ev.nodeID)
				node, ok := s.nodeByID(ev.nodeID)
				if !ok {
					continue
				}
				freeNodes = append(freeNodes, node)
				res.Faults.NodeRecoveries++
				mNodeRecoveries.Inc()
				res.Events = append(res.Events, Event{Time: now, Kind: "recover", NodeID: ev.nodeID})
				log.Record(now, "node-recover", ev.nodeID, "node back in service")
				if err := admit(); err != nil {
					return res, err
				}
				continue
			}
			if down[ev.nodeID] {
				continue
			}
			down[ev.nodeID] = true
			res.Faults.NodeFailures++
			mNodeFailures.Inc()
			res.Events = append(res.Events, Event{Time: now, Kind: "fail", NodeID: ev.nodeID})
			log.Record(now, "node-fail", ev.nodeID, "node lost")
			// Remove from the free pool if idle, or evict its job.
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
						evict(i, "node failure", false)
						break
					}
				}
			}
			// Re-admission + surplus redistribution happen here: the
			// evicted job is reconsidered immediately on surviving nodes.
			if err := admit(); err != nil {
				return res, err
			}

		case nextShock <= nextDone:
			ev := shocks.Pop()
			advance(nextShock)
			pool += ev.Delta
			shockHeld -= ev.Delta
			if ev.Delta < 0 {
				res.Faults.Shocks++
				mShocks.Inc()
				log.Recordf(now, "budget-shock", "facility", "pool reduced by %v", -ev.Delta)
				// Evict most recently started jobs until the committed
				// grants fit the shrunken budget again.
				for pool < 0 && len(active) > 0 {
					latest := 0
					for i, r := range active {
						if r.Started > active[latest].Started {
							latest = i
						}
					}
					evict(latest, "budget shock", true)
				}
			} else {
				log.Recordf(now, "budget-restore", "facility", "pool restored by %v", ev.Delta)
			}
			if err := admit(); err != nil {
				return res, err
			}

		default:
			advance(nextDone)
			done := active[di]
			active = append(active[:di], active[di+1:]...)
			runtime := now - done.Started
			res.Energy += units.Energy(done.Power.Watts() * runtime)
			res.Stats[done.Job.ID] = JobStat{
				Start: done.FirstStart, End: now,
				Budget: done.Budget, Power: done.Power, Rate: done.Rate,
			}
			res.Events = append(res.Events, Event{Time: now, Kind: "finish", JobID: done.Job.ID, NodeID: done.Node.ID})
			pool += done.Budget
			freeNodes = append(freeNodes, done.Node)
			if err := admit(); err != nil {
				return res, err
			}
		}
	}
	conserve()
	res.Faults.PoolLeft = pool + shockHeld
	res.Makespan = now
	sort.SliceStable(res.Events, func(i, j int) bool { return res.Events[i].Time < res.Events[j].Time })
	return res, nil
}

// nodeByID finds a scheduler node.
func (s *Scheduler) nodeByID(id string) (Node, bool) {
	for _, n := range s.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// faultHorizon estimates an upper bound on the makespan for fault
// scheduling: total work at the slowest plausible rate, padded 4x, with
// a floor of one hour. Deterministic in the inputs.
func (s *Scheduler) faultHorizon(jobs []TimedJob) float64 {
	var totalUnits float64
	for _, j := range jobs {
		totalUnits += j.Units
	}
	// A conservative rate guess: 1e9 units/s. Catalog workloads run at
	// 1e10-1e11 units/s even under tight grants, so the 4x-padded horizon
	// comfortably covers the makespan without precomputing millions of
	// fault events the run will never reach.
	h := 4 * totalUnits / 1e9
	if h < 3600 {
		h = 3600
	}
	return h
}
