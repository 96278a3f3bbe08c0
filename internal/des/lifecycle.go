package des

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/trace"
	"repro/internal/units"
)

// lifecycle is the run state both modes share: the clock, the power
// pool, node health, the fault cursors and accounting, the trace hash
// and the streaming statistics. A mode embeds it and adds its own job
// and node state; run drives both through one event loop.
type lifecycle struct {
	cfg  Config
	arrs []jobArrival
	log  *trace.EventLog // exact mode only

	outages *faults.OutageStream
	shocks  *faults.ShockEdges

	now  float64
	pool units.Power
	// shockHeld is the power withheld from the pool by active budget
	// shocks. At every event boundary the loop audits the conservation
	// identity pool + Σ(committed grants) + shockHeld == Budget;
	// eviction bugs that leak or mint power show up as a deviation.
	shockHeld units.Power
	down      []bool
	nDown     int
	energy    units.Energy
	sum       FaultSummary
	hash      traceHash
	stats     agg
}

// newLifecycle starts a run at t=0 with the full budget and every node
// up. The fault schedules cover a bound on the makespan (total work at
// a conservative 1e9 units/s, padded 4x, floored at one hour) and are
// drawn only as the event cursor reaches them. The goldens pin the
// outage schedules, so the formula and its accumulation order (t=0
// jobs first, then the generated trace) are part of the contract.
func newLifecycle(cfg Config, arrs []jobArrival) lifecycle {
	var totalUnits float64
	for _, j := range cfg.Jobs {
		totalUnits += j.Units
	}
	for _, a := range arrs {
		totalUnits += a.units
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
	return lifecycle{
		cfg: cfg, arrs: arrs,
		outages: cfg.Injector.OutageStream(ids, horizon),
		shocks:  cfg.Injector.ShockEdges(horizon, s.Budget),
		pool:    s.Budget,
		down:    make([]bool, len(s.Nodes)),
		hash:    newTraceHash(),
	}
}

// mode is what an engine adds to the lifecycle. Jobs are named by
// handles the mode chooses: exact mode's index into its running list,
// fast mode's dense job index.
type mode interface {
	// until converts an absolute time into the mode's clock frame.
	// nextDone answers in that frame (+Inf while nothing runs), and
	// advance takes a time in it.
	until(at float64) float64
	nextDone() float64
	advance(t float64)

	admit() error
	arrive(i int) // queue generated arrival i
	// finish takes the job nextDone found out of service and frees its
	// node; evict re-queues running job j at the queue head with its
	// remaining work, freeing its node if keepNode. latest is the most
	// recently started running job.
	finish() stopped
	evict(j int, keepNode bool) stopped
	latest() int

	// nodeUp frees recovered node n; nodeDown takes failed node n out of
	// the free set, or returns the job running on it (-1 when idle).
	nodeUp(n int32)
	nodeDown(n int32) int

	committed() units.Power // the grants of the running jobs
	queued() int
	running() int
}

// stopped is a job leaving service.
type stopped struct {
	job, node                    int32 // dense indices for the trace hash
	budget, power                units.Power
	started, firstStart, arrival float64 // this run's start; the job's first start and arrival
	id                           string  // evictions, exact mode: for the log
	left                         float64 // evictions: remaining work
}

// run is the one event loop. It takes the next event — outage edge,
// shock edge, arrival, completion, in that order on ties — applies it
// and re-runs the mode's admission pass. A queue that can never start
// fails with cluster.ErrStarved; Config.MaxEvents bounds the loop.
func run(l *lifecycle, m mode) (Result, error) {
	out := Result{Mode: l.cfg.Mode}
	if err := m.admit(); err != nil {
		return out, err
	}
	l.conserve(m)
	// At t=0 every node is up and the budget is unshocked, so a queue
	// that cannot start now can never start: faults only remove capacity.
	if m.running() == 0 && m.queued() > 0 {
		return out, fmt.Errorf("cluster: no job can start (budget %v too small for every job): %w",
			l.cfg.Sched.Budget, cluster.ErrStarved)
	}

	arrs, ai, steps := l.arrs, 0, 0
	for ; ai < len(arrs) || m.running() > 0 || m.queued() > 0; steps++ {
		l.conserve(m)
		if steps >= l.cfg.MaxEvents {
			return out, fmt.Errorf("des: %v engine exceeded %d events (spec too hostile?)", l.cfg.Mode, l.cfg.MaxEvents)
		}
		nextDone := m.nextDone()
		nextOutage, nextShock, nextArr := math.Inf(1), math.Inf(1), math.Inf(1)
		if ev, ok := l.outages.Peek(); ok {
			nextOutage = m.until(ev.At)
		}
		if ev, ok := l.shocks.Peek(); ok {
			nextShock = m.until(ev.At)
		}
		if ai < len(arrs) {
			nextArr = m.until(max(arrs[ai].at, l.now)) // an arrival already due fires now
		}
		// Nothing running and no event left that could free a node or
		// power: starved. (Rates are positive, so an idle cluster is the
		// only way nextDone is infinite.)
		if math.IsInf(nextDone, 1) && math.IsInf(nextOutage, 1) && math.IsInf(nextShock, 1) && math.IsInf(nextArr, 1) {
			return out, fmt.Errorf("cluster: %d job(s) can never start (%d node(s) down, pool %v): %w",
				m.queued(), l.nDown, l.pool, cluster.ErrStarved)
		}

		switch {
		case nextOutage <= nextDone && nextOutage <= nextShock && nextOutage <= nextArr:
			ev := l.outages.Pop()
			m.advance(nextOutage)
			if !l.outage(m, ev) {
				continue
			}
		case nextShock <= nextDone && nextShock <= nextArr:
			ev := l.shocks.Pop()
			m.advance(nextShock)
			l.shock(m, ev.Delta)
		case nextArr <= nextDone:
			m.advance(nextArr)
			for at := arrs[ai].at; ai < len(arrs) && arrs[ai].at == at; ai++ {
				m.arrive(ai)
				l.hash.event(l.now, evArrive, int32(len(l.cfg.Jobs)+ai), -1)
			}
		default:
			m.advance(nextDone)
			d := m.finish()
			l.energy += units.Energy(d.power.Watts() * (l.now - d.started))
			l.stats.finish(d.arrival, d.firstStart, l.now)
			l.pool += d.budget
			l.hash.event(l.now, evFinish, d.job, d.node)
		}
		if err := m.admit(); err != nil {
			return out, err
		}
	}
	l.conserve(m)
	l.sum.PoolLeft = l.pool + l.shockHeld

	out.Arrived, out.EngineEvents = len(l.cfg.Jobs)+len(arrs), steps
	out.Makespan, out.Energy = l.now, l.energy
	out.Faults, out.TraceHash = l.sum, l.hash.h
	l.stats.fill(&out)
	return out, nil
}

// conserve folds the current deviation from pool conservation into the
// fault summary.
func (l *lifecycle) conserve(m mode) {
	dev := math.Abs((l.pool + m.committed() + l.shockHeld - l.cfg.Sched.Budget).Watts())
	l.sum.MaxConservationError = max(l.sum.MaxConservationError, units.Power(dev))
}

// outage applies one node edge and reports whether it changed the
// node's state. A failed node's job is evicted; the admission pass that
// follows reconsiders it at once on the surviving nodes.
func (l *lifecycle) outage(m mode, ev faults.OutageEdge) bool {
	if l.down[ev.Node] != ev.Up {
		return false // recovery of an up node, or failure of a down one
	}
	node := l.cfg.Sched.Nodes[ev.Node].ID // for the log
	l.down[ev.Node] = !ev.Up
	if ev.Up {
		l.nDown--
		m.nodeUp(ev.Node)
		l.sum.NodeRecoveries++
		mNodeRecoveries.Inc()
		l.hash.event(l.now, evNodeUp, -1, ev.Node)
		l.log.Record(l.now, "node-recover", node, "node back in service")
		return true
	}
	l.nDown++
	l.sum.NodeFailures++
	mNodeFailures.Inc()
	l.hash.event(l.now, evNodeFail, -1, ev.Node)
	l.log.Record(l.now, "node-fail", node, "node lost")
	if j := m.nodeDown(ev.Node); j >= 0 {
		l.evict(m, j, false)
	}
	return true
}

// shock applies one shock edge to the pool. A shock start evicts the
// most recently started jobs until the committed grants fit the
// shrunken budget again: the bound is never knowingly exceeded.
func (l *lifecycle) shock(m mode, delta units.Power) {
	l.pool += delta
	l.shockHeld -= delta
	if delta >= 0 {
		l.hash.event(l.now, evRestore, -1, -1)
		if l.log != nil {
			l.log.Recordf(l.now, "budget-restore", "facility", "pool restored by %v", delta)
		}
		return
	}
	l.sum.Shocks++
	mShocks.Inc()
	l.hash.event(l.now, evShock, -1, -1)
	if l.log != nil {
		l.log.Recordf(l.now, "budget-shock", "facility", "pool reduced by %v", -delta)
	}
	for l.pool < 0 && m.running() > 0 {
		l.evict(m, m.latest(), true)
	}
}

// evict kills running job j, reclaims its grant into the pool and
// re-queues it at the head with its remaining work. keepNode keeps the
// node in service (budget-shock evictions: the node is healthy, only
// the power is gone); a failed node stays out until its recovery edge.
func (l *lifecycle) evict(m mode, j int, keepNode bool) {
	e := m.evict(j, keepNode)
	l.energy += units.Energy(e.power.Watts() * (l.now - e.started))
	l.pool += e.budget
	l.sum.BudgetReclaimed += e.budget
	l.sum.Readmissions++
	evictions, cause := mEvictNodeFail, "node failure"
	if keepNode {
		evictions, cause = mEvictShock, "budget shock"
	}
	evictions.Inc()
	mReadmissions.Inc()
	mReclaimedWatts.Add(e.budget.Watts())
	l.hash.event(l.now, evSuspend, e.job, e.node)
	if l.log != nil {
		l.log.Recordf(l.now, "budget-reclaim", e.id, "%s returned to pool (%s)", e.budget, cause)
		l.log.Recordf(l.now, "job-readmit", e.id, "re-queued with %.3g work units left", e.left)
	}
}
