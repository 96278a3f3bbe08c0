package des

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/units"
)

// lifecycle is the run state of both modes: the absolute clock, the
// power pool, every job's admission record, the queue and the
// completion heap, node health and the admission core (admit.go), the
// fault cursors and accounting, the trace hash and the streaming
// statistics. run drives it through one event loop.
type lifecycle struct {
	cfg  Config
	arrs []jobArrival
	// ModeExact only: the per-job result, job IDs and transition log.
	res *cluster.QueueResult
	ids []string
	log *trace.EventLog

	outages *faults.OutageStream
	shocks  *faults.ShockEdges
	// sched holds the budget schedule's edges not yet applied; on a tie
	// with an injector's edge the schedule's applies first.
	sched []faults.ShockEdge

	now     float64 // absolute virtual time; never moves back
	pool    units.Power
	granted units.Power // Σ grants of the running jobs
	// shockHeld is the power withheld from the pool by active budget
	// shocks. At every event boundary the loop audits the conservation
	// identity pool + Σ(committed grants) + shockHeld == Budget;
	// eviction bugs that leak or mint power show up as a deviation.
	shockHeld units.Power
	nDown     int

	// jobs holds every job by dense index: the t=0 jobs in order, then
	// the generated trace. Dense indices name jobs in the trace hash,
	// the queue and the heap.
	jobs   []jobRec
	active int // running jobs
	// queue[qHead:] holds the waiting jobs in admission order (admit.go).
	queue []int32
	qHead int
	// heap keys the running jobs' completions by absolute time, seq in
	// start order breaking ties; a job that leaves service early leaves
	// a stale entry behind (its gen moved on).
	heap doneHeap
	seq  uint64
	admitter

	energy units.Energy
	sum    FaultSummary
	hash   traceHash
	stats  agg
}

// jobRec is one job's record, compact (no strings, no maps) so
// million-job traces stay cache- and memory-friendly.
type jobRec struct {
	// units is the work left as of the job's last (re)admission: its
	// full work until an eviction sets what is left.
	units             float64
	firstStart        float64 // -1 until the first admission
	started           float64
	doneT             float64 // absolute completion time while running
	cluster.Admission         // while running
	node              int32   // while running
	gen               uint32  // bumped as the job leaves service: stale heap and log entries miss
}

// newLifecycle starts a run at t=0 with the full budget, every node up
// and free, and nothing queued. The fault schedules cover a bound on
// the makespan (total work at a conservative 1e9 units/s, padded 4x,
// floored at one hour) and are drawn only as the event cursor reaches
// them. The goldens pin the outage schedules, so the formula and its
// accumulation order (t=0 jobs first, then the generated trace) are
// part of the contract.
func newLifecycle(cfg Config, arrs []jobArrival, sched []faults.ShockEdge) lifecycle {
	jobs := make([]jobRec, 0, len(cfg.Jobs)+len(arrs))
	var totalUnits float64
	for _, j := range cfg.Jobs {
		totalUnits += j.Units
		jobs = append(jobs, jobRec{units: j.Units, firstStart: -1})
	}
	for _, a := range arrs {
		totalUnits += a.units
		jobs = append(jobs, jobRec{units: a.units, firstStart: -1})
	}
	horizon := 4 * totalUnits / 1e9
	if horizon < 3600 {
		horizon = 3600
	}
	s := cfg.Sched
	ids := make([]string, len(s.Nodes)) // outage edges index s.Nodes
	for i, n := range s.Nodes {
		ids[i] = n.ID
	}
	l := lifecycle{
		cfg: cfg, arrs: arrs,
		outages:  cfg.Injector.OutageStream(ids, horizon),
		shocks:   cfg.Injector.ShockEdges(horizon, s.Budget),
		sched:    sched,
		pool:     s.Budget,
		jobs:     jobs,
		admitter: newAdmitter(cfg),
		hash:     newTraceHash(),
	}
	if cfg.Mode == ModeExact {
		l.res = &cluster.QueueResult{Stats: map[string]cluster.JobStat{}}
		l.log = cfg.Log
		l.ids = make([]string, 0, len(jobs))
		for _, j := range cfg.Jobs {
			l.ids = append(l.ids, j.ID)
		}
		for i := range arrs {
			l.ids = append(l.ids, arrivalID(i))
		}
	}
	return l
}

// run is the one event loop. It takes the next event — outage edge,
// shock edge (the schedule's, then the injector's), arrival,
// completion, in that order on ties — moves the clock to it, applies
// it and re-runs the admission pass. A queue that can never start
// fails with cluster.ErrStarved; Config.MaxEvents bounds the loop.
func (l *lifecycle) run() (Result, error) {
	out := Result{Mode: l.cfg.Mode}
	steps := 0
	// A schedule that starts below the ceiling withholds the difference
	// before the first admission.
	if len(l.sched) > 0 && l.sched[0].At == 0 {
		l.shock(l.sched[0].Delta)
		l.sched = l.sched[1:]
		steps++
	}
	for j := range l.cfg.Jobs {
		l.enqueue(int32(j), false)
	}
	if err := l.admit(); err != nil {
		return out, err
	}
	l.conserve()
	// At t=0 every node is up, so unless the schedule will raise the
	// budget, a queue that cannot start now can never start: faults
	// only remove capacity.
	if l.active == 0 && l.queued() > 0 && !slices.ContainsFunc(l.sched, func(e faults.ShockEdge) bool { return e.Delta > 0 }) {
		return out, fmt.Errorf("cluster: no job can start (budget %v too small for every job): %w",
			l.pool, cluster.ErrStarved)
	}

	arrs, ai := l.arrs, 0
	for ; ai < len(arrs) || l.active > 0 || l.queued() > 0; steps++ {
		l.conserve()
		if steps >= l.cfg.MaxEvents {
			return out, fmt.Errorf("des: engine exceeded %d events (spec too hostile?)", l.cfg.MaxEvents)
		}
		nextDone := l.nextDone()
		nextOutage, nextShock, nextArr := math.Inf(1), math.Inf(1), math.Inf(1)
		if ev, ok := l.outages.Peek(); ok {
			nextOutage = ev.At
		}
		if ev, ok := l.shocks.Peek(); ok {
			nextShock = ev.At
		}
		if len(l.sched) > 0 && l.sched[0].At < nextShock {
			nextShock = l.sched[0].At
		}
		if ai < len(arrs) {
			nextArr = max(arrs[ai].at, l.now) // an arrival already due fires now
		}
		// Nothing running and no event left that could free a node or
		// power: starved. (Rates are positive, so an idle cluster is the
		// only way nextDone is infinite.)
		if math.IsInf(nextDone, 1) && math.IsInf(nextOutage, 1) && math.IsInf(nextShock, 1) && math.IsInf(nextArr, 1) {
			return out, fmt.Errorf("cluster: %d job(s) can never start (%d node(s) down, pool %v): %w",
				l.queued(), l.nDown, l.pool, cluster.ErrStarved)
		}

		switch {
		case nextOutage <= nextDone && nextOutage <= nextShock && nextOutage <= nextArr:
			ev := l.outages.Pop()
			l.advance(nextOutage)
			if !l.outage(ev) {
				continue
			}
		case nextShock <= nextDone && nextShock <= nextArr:
			l.advance(nextShock)
			if len(l.sched) > 0 && l.sched[0].At == nextShock {
				l.shock(l.sched[0].Delta)
				l.sched = l.sched[1:]
			} else {
				l.shock(l.shocks.Pop().Delta)
			}
		case nextArr <= nextDone:
			l.advance(nextArr)
			for at := arrs[ai].at; ai < len(arrs) && arrs[ai].at == at; ai++ {
				j := int32(len(l.cfg.Jobs) + ai)
				l.enqueue(j, false)
				l.event(evArrive, j, -1)
			}
		default:
			l.advance(nextDone)
			l.finish(l.heap.pop().job)
		}
		if err := l.admit(); err != nil {
			return out, err
		}
	}
	l.conserve()
	l.sum.PoolLeft = l.pool + l.shockHeld

	out.Arrived, out.EngineEvents = len(l.cfg.Jobs)+len(arrs), steps
	out.Makespan, out.Energy = l.now, l.energy
	out.Faults, out.TraceHash = l.sum, l.hash.h
	l.stats.fill(&out)
	if l.res != nil {
		l.res.Makespan, l.res.Energy = l.now, l.energy
		out.Queue = l.res
	}
	return out, nil
}

// nextDone drops stale heap entries and returns the next completion
// time, +Inf while nothing runs.
func (l *lifecycle) nextDone() float64 {
	for len(l.heap) > 0 {
		if top := l.heap[0]; l.jobs[top.job].gen == top.gen {
			return top.t
		}
		l.heap.pop()
	}
	return math.Inf(1)
}

// advance moves the clock to at. An event already due fires at the
// current time: the clock never moves back.
func (l *lifecycle) advance(at float64) { l.now = max(l.now, at) }

// conserve folds the current deviation from pool conservation into the
// fault summary.
func (l *lifecycle) conserve() {
	dev := math.Abs((l.pool + l.granted + l.shockHeld - l.cfg.Sched.Budget).Watts())
	l.sum.MaxConservationError = max(l.sum.MaxConservationError, units.Power(dev))
}

// event folds an event into the trace hash and, in exact mode, into
// the per-job result's event log. j or n is -1 when the event names no
// job or no node.
func (l *lifecycle) event(kind byte, j, n int32) {
	l.hash.event(l.now, kind, j, n)
	if l.res == nil || resultKinds[kind] == "" {
		return
	}
	ev := cluster.Event{Time: l.now, Kind: resultKinds[kind]}
	if j >= 0 {
		ev.JobID = l.ids[j]
	}
	if n >= 0 {
		ev.NodeID = l.cfg.Sched.Nodes[n].ID
	}
	l.res.Events = append(l.res.Events, ev)
}

// resultKinds names the events exact mode's per-job result records.
var resultKinds = [256]string{
	evStart: "start", evFinish: "finish", evSuspend: "suspend", evNodeFail: "fail", evNodeUp: "recover",
}

// leave takes running job j out of service: its draw stops, its grant
// returns to the pool, its node is idle and its heap entry goes stale.
func (l *lifecycle) leave(j int32) *jobRec {
	r := &l.jobs[j]
	l.energy += units.Energy(r.Power.Watts() * (l.now - r.started))
	l.pool += r.Budget
	l.granted -= r.Budget
	l.nodes[r.node].job = -1
	l.active--
	r.gen++
	return r
}

// finish completes job j and frees its node.
func (l *lifecycle) finish(j int32) {
	r := l.leave(j)
	l.pushFree(r.node)
	arrival := 0.0
	if i := int(j) - len(l.cfg.Jobs); i >= 0 {
		arrival = l.arrs[i].at
	}
	l.stats.finish(arrival, r.firstStart, l.now)
	if l.res != nil {
		l.res.Stats[l.ids[j]] = cluster.JobStat{Start: r.firstStart, End: l.now, Budget: r.Budget, Power: r.Power, Rate: r.Rate}
	}
	l.event(evFinish, j, r.node)
}

// outage applies one node edge and reports whether it changed the
// node's state. A failed node's job is evicted; the admission pass that
// follows reconsiders it at once on the surviving nodes.
func (l *lifecycle) outage(ev faults.OutageEdge) bool {
	nr := &l.nodes[ev.Node]
	if nr.down != ev.Up {
		return false // recovery of an up node, or failure of a down one
	}
	node := l.cfg.Sched.Nodes[ev.Node].ID // for the log
	nr.down = !ev.Up
	if ev.Up {
		l.nDown--
		l.pushFree(ev.Node)
		l.sum.NodeRecoveries++
		mNodeRecoveries.Inc()
		l.event(evNodeUp, -1, ev.Node)
		l.log.Record(l.now, "node-recover", node, "node back in service")
		return true
	}
	l.nDown++
	l.sum.NodeFailures++
	mNodeFailures.Inc()
	l.event(evNodeFail, -1, ev.Node)
	l.log.Record(l.now, "node-fail", node, "node lost")
	if nr.job >= 0 {
		l.evict(nr.job, false)
	} else {
		l.removeFree(ev.Node)
	}
	return true
}

// shock applies one shock edge to the pool. A shock start evicts the
// most recently started jobs until the committed grants fit the
// shrunken budget again: the bound is never knowingly exceeded.
func (l *lifecycle) shock(delta units.Power) {
	l.pool += delta
	l.shockHeld -= delta
	if delta >= 0 {
		l.event(evRestore, -1, -1)
		if l.log != nil {
			l.log.Recordf(l.now, "budget-restore", "facility", "pool restored by %v", delta)
		}
		return
	}
	l.sum.Shocks++
	mShocks.Inc()
	l.event(evShock, -1, -1)
	if l.log != nil {
		l.log.Recordf(l.now, "budget-shock", "facility", "pool reduced by %v", -delta)
	}
	for l.pool < 0 && l.active > 0 {
		l.evict(l.latest(), true)
	}
}

// evict kills running job j, reclaims its grant into the pool and
// re-queues it at the head with the work it has left. keepNode frees
// the node (budget-shock evictions: the node is healthy, only the power
// is gone); a failed node stays out until its recovery edge.
func (l *lifecycle) evict(j int32, keepNode bool) {
	r := &l.jobs[j]
	r.units = max(0, (r.doneT-l.now)*r.Rate)
	l.leave(j)
	l.enqueue(j, true)
	l.sum.BudgetReclaimed += r.Budget
	l.sum.Readmissions++
	evictions, cause := mEvictNodeFail, "node failure"
	if keepNode {
		l.pushFree(r.node)
		evictions, cause = mEvictShock, "budget shock"
	}
	evictions.Inc()
	mReadmissions.Inc()
	mReclaimedWatts.Add(r.Budget.Watts())
	l.event(evSuspend, j, r.node)
	if l.log != nil {
		id := l.ids[j]
		l.log.Recordf(l.now, "budget-reclaim", id, "%s returned to pool (%s)", r.Budget, cause)
		l.log.Recordf(l.now, "job-readmit", id, "re-queued with %.3g work units left", r.units)
	}
}
